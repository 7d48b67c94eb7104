(* One benchmark process: run one workload once and print one JSON line
   of raw measurements.  run.py is the entry point that builds this,
   runs it several times in fresh processes, checks and aggregates.

   Usage: main.exe WORKLOAD --seed N [--trace] [--tiny] *)

let () =
  let workload = ref "" and seed = ref 1 and trace = ref false in
  let tiny = ref false in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Set trace, " traced run (per-layer accounting)");
      ("--tiny", Arg.Set tiny, " tiny scale, for the self-test");
    ]
    (fun w -> workload := w)
    "main.exe WORKLOAD --seed N [--trace] [--tiny]";
  let fields =
    if List.mem !workload Sim_bench.workloads then
      Sim_bench.run ~workload:!workload ~seed:!seed ~trace:!trace ~tiny:!tiny
    else if !workload = Native_bench.workload then
      Native_bench.run ~seed:!seed ~trace:!trace ~tiny:!tiny
    else begin
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    end
  in
  Common.print_json fields
