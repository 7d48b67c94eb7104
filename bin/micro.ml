(* Micro-benchmarks behind [mutps-cli micro] and the [engine_micro] gate
   case: a Bechamel suite over the substrate hot paths, and three engine
   cases that each measure one window once and project it into a
   deterministic gate row and a wall-clock perf row. *)

open Mutps_experiments

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the substrate hot paths                 *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let microbenches () =
  let open Mutps_sim in
  let open Mutps_mem in
  (* cache hierarchy access *)
  let hier = Hierarchy.create (Hierarchy.default_geometry ~cores:4) in
  let rng = Rng.create 1 in
  let bench_hier =
    (* this microbenchmark measures the hierarchy model itself, so it may
       bypass Env's charge discipline *)
    Test.make ~name:"hierarchy.load (random 64MB)"
      (Staged.stage (fun () ->
           ignore
             ((Hierarchy.load hier ~core:0 ~addr:(Rng.int rng 67_108_864)
                 ~size:8) [@lint.allow "R2"])))
  in
  (* ring push/pop — run each iteration as a simulated thread, so the
     figure includes the simulator's own per-op engine overhead *)
  let layout = Layout.create () in
  let ring =
    Mutps_queue.Ring.create layout ~name:"bench" ~slots:64 ~batch:4
      ~value_bytes:16
  in
  let engine = Engine.create () in
  let in_sim f =
    Simthread.spawn engine (fun ctx -> f (Env.make ~ctx ~hier ~core:1));
    Engine.run_all engine
  in
  let batch = [| 1; 2; 3; 4 |] in
  let bench_ring =
    Test.make ~name:"ring push+peek+complete+reap (simulated)"
      (Staged.stage (fun () ->
           in_sim (fun env ->
               ignore (Mutps_queue.Ring.push ring env batch);
               ignore (Mutps_queue.Ring.peek ring env);
               Mutps_queue.Ring.complete ring env;
               ignore (Mutps_queue.Ring.take_completed ring env))))
  in
  (* index probes *)
  let layout2 = Layout.create () in
  let slab = Mutps_store.Slab.create layout2 () in
  let cuckoo = Mutps_index.Cuckoo.create layout2 ~capacity:100_000 ~seed:3 in
  let cuckoo_ops = Mutps_index.Cuckoo.ops cuckoo in
  let btree = Mutps_index.Btree.create layout2 ~seed:3 in
  let btree_ops = Mutps_index.Btree.ops btree in
  for k = 0 to 99_999 do
    let key = Int64.of_int k in
    let item = Mutps_store.Item.create slab ~value:(Bytes.make 8 'x') in
    cuckoo_ops.Mutps_index.Index_intf.insert_silent key item;
    btree_ops.Mutps_index.Index_intf.insert_silent key item
  done;
  let lookup_bench name (ops : Mutps_index.Index_intf.t) =
    Test.make ~name:(name ^ ".lookup (100K keys, simulated)")
      (Staged.stage (fun () ->
           in_sim (fun env ->
               ignore (ops.lookup env (Int64.of_int (Rng.int rng 100_000))))))
  in
  let bench_cuckoo = lookup_bench "cuckoo" cuckoo_ops in
  let bench_btree = lookup_bench "btree" btree_ops in
  (* workload generation *)
  let zipf = Mutps_workload.Zipf.create ~n:1_000_000 ~theta:0.99 in
  let bench_zipf =
    Test.make ~name:"zipf.next (1M ranks)"
      (Staged.stage (fun () -> ignore (Mutps_workload.Zipf.next zipf rng)))
  in
  let hist = Stats.Hist.create () in
  let bench_hist =
    Test.make ~name:"hist.add"
      (Staged.stage (fun () -> Stats.Hist.add hist (Rng.int rng 1_000_000)))
  in
  let engine_bench = Engine.create () in
  let bench_engine =
    Test.make ~name:"engine schedule+dispatch"
      (Staged.stage (fun () ->
           Engine.schedule_after engine_bench ~delay:1 ignore;
           Engine.run engine_bench ~until:(Engine.now engine_bench + 2)))
  in
  (* observability overhead: the same tagged slice dispatch with no tracer
     (the zero-cost-when-off claim), with a profile-only collector, and
     with a full event collector.  Each variant owns its engine so tracer
     state never leaks between them. *)
  let slice_dispatch ~name mk_engine =
    let engine = mk_engine () in
    Test.make ~name
      (Staged.stage (fun () ->
           Simthread.spawn engine (fun ctx ->
               let env = Env.make ~ctx ~hier ~core:2 in
               Env.tagged env "bench" (fun () ->
                   Env.compute env 10;
                   ignore
                     ((Hierarchy.load hier ~core:2 ~addr:64 ~size:8)
                     [@lint.allow "R2"]));
               Env.commit env);
           Engine.run_all engine))
  in
  let bench_trace_off =
    slice_dispatch ~name:"env slice dispatch (trace off)" Engine.create
  in
  let bench_trace_profile =
    slice_dispatch ~name:"env slice dispatch (profile-only tracer)"
      (fun () ->
        let engine = Engine.create () in
        ignore (Mutps_trace.Trace.install ~keep_events:false engine);
        engine)
  in
  let bench_trace_full =
    slice_dispatch ~name:"env slice dispatch (full tracer)" (fun () ->
        let engine = Engine.create () in
        (* cap keeps a long benchmark run from growing without bound; past
           the cap the hooks still run their full bookkeeping *)
        ignore (Mutps_trace.Trace.install ~max_events:1_000_000 engine);
        engine)
  in
  Test.make_grouped ~name:"substrate"
    [
      bench_hier; bench_ring; bench_cuckoo; bench_btree; bench_zipf;
      bench_hist; bench_engine; bench_trace_off; bench_trace_profile;
      bench_trace_full;
    ]

let run_substrate () =
  print_endline "\n=== Substrate microbenchmarks (Bechamel) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (microbenches ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  (* print in sorted order so runs are comparable line by line *)
  Hashtbl.to_seq results |> List.of_seq
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some [ est ] -> Printf.printf "%-40s %10.1f ns/run\n%!" name est
         | _ -> Printf.printf "%-40s (no estimate)\n%!" name)

(* ------------------------------------------------------------------ *)
(* Engine cases: scheduler churn, far-future mix, the fig2a hot loop   *)
(*                                                                     *)
(* Each case measures one window and reports the two numbers the       *)
(* mutps.alloc certifier exists to drive: GC words allocated per       *)
(* dispatched event (deterministic, gated bit-exact by                 *)
(* test/golden/engine_micro.json) and the wall-clock rates (recorded   *)
(* in BENCH_trajectory.json, never gated bit-exact).                   *)
(* ------------------------------------------------------------------ *)

type window = {
  case : string;
  system : string;
  events : int;  (** events dispatched in the window *)
  sim_cycles : int;  (** simulated cycles the window covered *)
  completed : int option;  (** client ops finished (fig2a only) *)
  words_per_event : float;
  wall_s : float;
}

(* CPU seconds: the engine loop is single-threaded, so CPU time is the
   wall time of interest and is less noisy under CI co-tenancy *)
let cpu_time () = (Sys.time () [@lint.allow "R1"])

(* Words allocated so far.  The minor part comes from [Gc.minor_words]:
   [quick_stat]'s minor count (OCaml 5.1) leaves out the current minor
   heap, so it moves in whole-minor-heap steps and a window's reading
   depends on where the collections before it fell. *)
let gc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* [f ()]'s CPU seconds and GC words allocated *)
let measured f =
  let w0 = gc_words () and t0 = cpu_time () in
  f ();
  let t1 = cpu_time () and w1 = gc_words () in
  (t1 -. t0, w1 -. w0)

(* words-per-event rounded so the ~25-word cost of sampling Gc stats
   cannot wobble the gated metric *)
let per_event words events =
  Float.round (words /. float_of_int events *. 100.) /. 100.

(* A standing population of self-rescheduling events, 1M dispatches in
   all.  [near] events re-fire within a 64-cycle horizon (calendar-wheel
   territory); [far] events jump 64K-1M cycles ahead on every firing, so
   the overflow heap and its migration back into the wheel stay on the
   measured path.  Closures are allocated up front and reused, so the
   measured allocations belong to push/pop/dispatch, not the workload;
   the int delay mix spreads events without touching Rng (whose Int64
   draws would allocate). *)
let churn ~case ~near ~far =
  let open Mutps_sim in
  let engine = Engine.create () in
  let remaining = ref (1_000_000 - near - far) in
  let seq = ref 0 in
  let rec fire_near () =
    if !remaining > 0 then begin
      decr remaining;
      incr seq;
      Engine.schedule_after engine ~delay:(1 + (!seq * 0x9E37 land 0x3F)) fire_near
    end
  in
  let rec fire_far () =
    if !remaining > 0 then begin
      decr remaining;
      incr seq;
      Engine.schedule_after engine
        ~delay:(65_536 + (!seq * 0x2545F49 land 0xFFFFF))
        fire_far
    end
  in
  for i = 1 to near do
    Engine.schedule_after engine ~delay:(i land 0x3F) fire_near
  done;
  for i = 1 to far do
    Engine.schedule_after engine ~delay:(65_536 + (i * 8_191)) fire_far
  done;
  let wall_s, words = measured (fun () -> Engine.run_all engine) in
  let events = Engine.dispatched engine in
  {
    case;
    system = "";
    events;
    sim_cycles = Engine.now engine;
    completed = None;
    words_per_event = per_event words events;
    wall_s;
  }

(* The fig2a hot loop (uniform gets against μTPS) at [scale], with the
   harness's warmup excluded: deltas are taken across the measured window
   only, so populate/warmup allocations do not dilute words-per-event. *)
let fig2a_hot_loop scale =
  let open Mutps_sim in
  let spec =
    Mutps_workload.Ycsb.get_only_uniform ~keyspace:scale.Harness.keyspace
      ~value_size:64 ()
  in
  let built = Harness.build Harness.Mutps scale spec in
  let clients = Harness.start_clients built scale spec in
  let engine = built.Harness.engine in
  Engine.run engine ~until:scale.Harness.warmup;
  let d0 = Engine.dispatched engine in
  let c0 = Mutps_net.Client.completed clients in
  let wall_s, words =
    measured (fun () ->
        Engine.run engine ~until:(scale.Harness.warmup + scale.Harness.measure))
  in
  let events = Engine.dispatched engine - d0 in
  {
    case = "fig2a_hot_loop";
    system = "uTPS";
    events;
    sim_cycles = scale.Harness.measure;
    completed = Some (Mutps_net.Client.completed clients - c0);
    words_per_event = per_event words events;
    wall_s;
  }

(* The three cases at their pinned scale (fig2a: MUTPS_BENCH_SCALE=0.02),
   independent of the environment. *)
let engine_cases () =
  [
    churn ~case:"push_pop_churn" ~near:1_024 ~far:0;
    churn ~case:"sched_micro" ~near:1_024 ~far:64;
    fig2a_hot_loop (Harness.scaled 0.02);
  ]

(* The deterministic projection.  fig2a's window length is the pinned
   scale, so its row carries completed ops in place of sim_cycles. *)
let gate_row w =
  Report.row ~experiment:"engine_micro" ~system:w.system
    ~axis:[ ("case", w.case) ]
    (("events", float_of_int w.events)
     :: ("minor_words_per_event", w.words_per_event)
     ::
     (match w.completed with
     | Some c -> [ ("completed", float_of_int c) ]
     | None -> [ ("sim_cycles", float_of_int w.sim_cycles) ]))

(* The wall-clock projection: the [mutps-cli trajectory --perf] input. *)
let perf_row w =
  let per_s n = float_of_int n /. w.wall_s in
  Report.row ~experiment:"engine_micro" ~system:w.system
    ~axis:[ ("case", w.case ^ "_perf") ]
    (("wall_s", w.wall_s)
     :: ("events_per_sec", per_s w.events)
     :: ("sim_cycles_per_sec", per_s w.sim_cycles)
     :: ("minor_words_per_event", w.words_per_event)
     ::
     (match w.completed with
     | Some c -> [ ("ops_per_sec", per_s c) ]
     | None -> []))

let print_row (r : Report.row) =
  Printf.printf "%-22s" (List.assoc "case" r.Report.axis);
  List.iter
    (fun (k, v) -> Printf.printf "  %s=%s" k (Report.float_to_string v))
    r.Report.metrics;
  print_newline ()
