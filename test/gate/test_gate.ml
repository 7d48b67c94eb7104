(* The golden gate end to end: the built mutps-cli runs [gate engine_micro]
   in a scratch tree holding a copy of test/golden/, and its exit status
   and output are checked after tampering with the golden. *)

open Mutps_experiments

let cli =
  match
    List.find_opt Sys.file_exists
      [ "../../bin/mutps_cli.exe"; "_build/default/bin/mutps_cli.exe" ]
  with
  | Some p -> Filename.concat (Sys.getcwd ()) p
  | None -> failwith "mutps_cli.exe not built"

let golden_src =
  List.find Sys.file_exists
    [ "../golden/engine_micro.json"; "test/golden/engine_micro.json" ]

(* a fresh tree whose test/golden/engine_micro.json is the committed one *)
let tree =
  let root = Filename.temp_dir "gate" "" in
  Sys.mkdir (Filename.concat root "test") 0o755;
  Sys.mkdir (Filename.concat root "test/golden") 0o755;
  Report.write_file
    (Filename.concat root "test/golden/engine_micro.json")
    (Report.read_file golden_src);
  root

let golden = Filename.concat tree "test/golden/engine_micro.json"

let () =
  at_exit (fun () ->
      Sys.remove golden;
      List.iter
        (fun d -> Sys.rmdir (Filename.concat tree d))
        [ "test/golden"; "test"; "" ])

(* run [mutps-cli gate ARGS] inside [tree]; (exit status, stdout and
   stderr lines) *)
let gate args =
  let out = Filename.temp_file "gate" ".out" in
  let cmd =
    Printf.sprintf "cd %s && %s" (Filename.quote tree)
      (Filename.quote_command cli ~stdout:out ~stderr:out ("gate" :: args))
  in
  let rc = Sys.command cmd in
  let lines =
    In_channel.with_open_bin out In_channel.input_all
    |> String.split_on_char '\n'
  in
  Sys.remove out;
  (rc, lines)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let has_line lines subs =
  List.exists (fun l -> List.for_all (contains l) subs) lines

let check_rc what expected (rc, _) = Alcotest.(check int) what expected rc

(* regenerate, then check: passes whatever this compiler allocates *)
let test_update_then_check () =
  check_rc "--update exits 0" 0 (gate [ "--update"; "engine_micro" ]);
  check_rc "check after --update exits 0" 0 (gate [ "engine_micro" ])

let test_metric_drift () =
  let rows = Report.read_file golden in
  Report.write_file golden
    (List.map
       (fun (r : Report.row) ->
         if List.assoc_opt "case" r.Report.axis = Some "sched_micro" then
           { r with
             Report.metrics =
               List.map
                 (fun (k, v) ->
                   if k = "sim_cycles" then (k, v +. 1.) else (k, v))
                 r.Report.metrics }
         else r)
       rows);
  let rc, lines = gate [ "engine_micro" ] in
  Report.write_file golden rows;
  Alcotest.(check int) "exit 4" 4 rc;
  Alcotest.(check bool) "drift line names sim_cycles" true
    (has_line lines [ "drift:"; "sched_micro"; "sim_cycles" ])

(* a golden row the build no longer produces is missing; a produced row
   the golden lacks is extra *)
let test_row_sets () =
  let rows = Report.read_file golden in
  let retired =
    { (List.hd rows) with Report.axis = [ ("case", "retired_case") ] }
  in
  Report.write_file golden (retired :: rows);
  let rc, lines = gate [ "engine_micro" ] in
  Alcotest.(check int) "missing: exit 4" 4 rc;
  Alcotest.(check bool) "missing row line" true
    (has_line lines [ "drift: missing row"; "retired_case" ]);
  Report.write_file golden (List.tl rows);
  let rc, lines = gate [ "engine_micro" ] in
  Report.write_file golden rows;
  Alcotest.(check int) "extra: exit 4" 4 rc;
  Alcotest.(check bool) "extra row line" true
    (has_line lines [ "drift: extra row" ])

let test_unknown_case () =
  let rc, lines = gate [ "no_such_case" ] in
  Alcotest.(check bool) "non-zero exit" true (rc <> 0);
  Alcotest.(check bool) "message lists the cases" true
    (has_line lines
       [
         "no_such_case"; "experiment_digests"; "bench_baseline";
         "engine_micro";
       ])

let () =
  Alcotest.run "gate"
    [
      ( "engine_micro",
        [
          Alcotest.test_case "update then check" `Quick test_update_then_check;
          Alcotest.test_case "metric drift exits 4" `Quick test_metric_drift;
          Alcotest.test_case "row set drift exits 4" `Quick test_row_sets;
          Alcotest.test_case "unknown case" `Quick test_unknown_case;
        ] );
    ]
