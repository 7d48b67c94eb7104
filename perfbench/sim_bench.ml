(* The simulator workloads: build μTPS through the experiment harness,
   drive it with closed-loop clients seeded from the benchmark's seed,
   warm up, then time one fixed simulated window.

   Everything is reached through public entry points ([Harness.build],
   [Client.start], [Engine.run]).  Two observation points ride along:
   a wrapper around the transport's response callback records every
   simulated request latency exactly, and [Client.on_completion] checks
   every GET value against the deterministic payload of its key. *)

open Common
module H = Mutps_experiments.Harness
module Engine = Mutps_sim.Engine
module Simthread = Mutps_sim.Simthread
module Client = Mutps_net.Client
module Message = Mutps_net.Message
module Transport = Mutps_net.Transport
module Opgen = Mutps_workload.Opgen
module Request = Mutps_queue.Request
module Ring = Mutps_queue.Ring
module Hier = Mutps_mem.Hierarchy
module Env = Mutps_mem.Env
module Item = Mutps_store.Item
module Index = Mutps_index.Index_intf
module Kvs = Mutps_kvs
module Metrics = Mutps_trace.Metrics
module Trace = Mutps_trace.Trace

let workloads = [ "sim_get_uniform"; "sim_etc_mixed" ]

let spec_of ~keyspace = function
  | "sim_get_uniform" ->
    Mutps_workload.Ycsb.get_only_uniform ~keyspace ~value_size:64 ()
  | "sim_etc_mixed" -> Mutps_workload.Etc.spec ~keyspace ~get_ratio:0.5 ()
  | w -> invalid_arg ("unknown simulator workload " ^ w)

(* The paper-regime default scale; [tiny] keeps every code path but runs
   in well under a second, for the self-test. *)
let scale ~tiny =
  if tiny then
    { H.default_scale with keyspace = 4_000; warmup = 400_000; measure = 1_000_000 }
  else H.default_scale

(* Exact simulated request latencies (cycles), recorded while [on]. *)
type lat = { mutable buf : int array; mutable n : int; mutable on : bool }

let record lat x =
  if lat.on then begin
    if lat.n = Array.length lat.buf then begin
      let bigger = Array.make (2 * lat.n) 0 in
      Array.blit lat.buf 0 bigger 0 lat.n;
      lat.buf <- bigger
    end;
    lat.buf.(lat.n) <- x;
    lat.n <- lat.n + 1
  end

let observe_latency engine (tr : Transport.t) lat =
  {
    tr with
    Transport.set_on_response =
      (fun f ->
        tr.Transport.set_on_response (fun msg value ->
            record lat (Engine.now engine - msg.Message.sent_at);
            f msg value));
  }

type check = { mutable attempted : int; mutable wrong : int; mutable missing : int }

let check_reply spec chk (op : Opgen.op) value =
  chk.attempted <- chk.attempted + 1;
  match op.Opgen.kind, value with
  | Request.Get, Some v ->
    let key = op.Opgen.key in
    let want = Client.payload ~key ~size:(Opgen.size_for_key spec key) in
    if not (Bytes.equal v want) then chk.wrong <- chk.wrong + 1
  | Request.Get, None -> chk.missing <- chk.missing + 1
  | (Request.Put | Request.Delete | Request.Scan), _ -> ()

(* Simulated counters: engine events and every counter of the metrics
   registry (hierarchy levels, DDIO, link, kvs). *)
let counts (built : H.built) reg =
  ("sim.events", Engine.dispatched built.H.engine)
  :: List.filter_map
       (fun (e : Metrics.entry) ->
         match e.Metrics.kind with
         | Metrics.Counter ->
           Some
             ( Printf.sprintf "%s.%s" e.Metrics.subsystem e.Metrics.name,
               int_of_float (e.Metrics.read ()) )
         | Metrics.Gauge -> None)
       (Metrics.entries reg)

(* Inclusive simulated cycles per Env site, summed over threads. *)
module Sites = Map.Make (String)

let site_cycles collector =
  List.fold_left
    (fun acc (stack, cycles) ->
      match String.split_on_char ';' stack with
      | [] | [ _ ] -> acc
      | _thread :: sites ->
        List.fold_left
          (fun acc s ->
            Sites.update s (fun v -> Some (cycles + Option.value v ~default:0)) acc)
          acc (List.sort_uniq compare sites))
    Sites.empty (Trace.profile_entries collector)
  |> Sites.bindings
  |> List.map (fun (k, v) -> (k, I v))

(* ---- unit-cost calibration ------------------------------------------ *)

(* Host nanoseconds per unit of [n] units of work done by [f]. *)
let ns_per ~n f =
  let t0 = now_ns () in
  f ();
  float_of_int (now_ns () - t0) /. float_of_int (max 1 n)

(* Each layer's public function timed in isolation, on inputs drawn from
   the workload.  Free-running environments make the index and ring
   calls do their own work only; the hierarchy model is timed on its
   own, so the layers do not double count. *)
let calibrate ~tiny ~seed spec (built : H.built) =
  let n = if tiny then 20_000 else 400_000 in
  let backend = built.H.backend in
  let hier = backend.Kvs.Backend.hier in
  let cfg = backend.Kvs.Backend.config in
  let batch = cfg.Kvs.Config.batch in
  let gen = Opgen.make spec ~seed:(seed + 1) in
  let next_ns =
    ns_per ~n (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Opgen.next gen))
        done)
  in
  let keys = Array.init n (fun _ -> (Opgen.next gen).Opgen.key) in
  let env =
    Env.make_freerun ~ctx:(Simthread.detached built.H.engine) ~hier ~core:0
  in
  let index = backend.Kvs.Backend.index in
  let items = Array.make n None in
  let lookup_ns =
    ns_per ~n (fun () ->
        let i = ref 0 in
        while !i < n do
          let len = min batch (n - !i) in
          let found = index.Index.batch_lookup env (Array.sub keys !i len) in
          Array.blit found 0 items !i len;
          i := !i + len
        done)
  in
  (* hierarchy: the far path on item reads of the workload's keys, and
     the near path on a line the core already holds; weighted below by
     the window's own hit mix *)
  let cores = Hier.cores hier in
  let lines () =
    let acc = ref 0 in
    for core = 0 to cores - 1 do
      let s = Hier.core_stats hier ~core in
      acc := !acc + s.Hier.l1_hits + s.Hier.l2_hits + s.Hier.llc_hits
             + s.Hier.dram_fetches
    done;
    !acc
  in
  let l0 = lines () in
  let t0 = now_ns () in
  Array.iteri
    (fun i item ->
      match item with
      | Some it ->
        ignore
          (Sys.opaque_identity
             (Hier.load hier ~core:(i mod cores) ~addr:(Item.addr it)
                ~size:(Item.total_bytes it)))
      | None -> failwith "calibration: workload key missing from the index")
    items;
  let far_ns = float_of_int (now_ns () - t0) /. float_of_int (max 1 (lines () - l0)) in
  let near_ns =
    match items.(0) with
    | None -> 0.0
    | Some it ->
      let addr = Item.addr it in
      ns_per ~n (fun () ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (Hier.load hier ~core:0 ~addr ~size:8))
          done)
  in
  (* engine: 64 simulated threads each committing [delay]s, the
     dispatch-plus-effect-switch cycle every simulated worker runs *)
  let dispatch_ns =
    let e = Engine.create () in
    let per = n / 64 in
    for t = 0 to 63 do
      Simthread.spawn e (fun ctx ->
          for i = 1 to per do
            Simthread.delay ctx (50 + (((t * 7) + (i * 13)) land 255))
          done)
    done;
    let t0 = now_ns () in
    Engine.run_all e;
    float_of_int (now_ns () - t0) /. float_of_int (max 1 (Engine.dispatched e))
  in
  (* CR-MR ring: one full batch pushed, peeked, completed and reaped *)
  let ring_op_ns =
    let ring =
      Ring.create (Mutps_mem.Layout.create ()) ~name:"calibration"
        ~slots:cfg.Kvs.Config.crmr_slots ~batch
        ~value_bytes:Kvs.Fwd.ring_bytes
    in
    let vals = Array.make batch 0 in
    let rounds = n / batch in
    ns_per ~n:(rounds * batch) (fun () ->
        for _ = 1 to rounds do
          ignore (Ring.push ring env vals);
          (match Ring.peek ring env with
          | Some _ -> Ring.complete ring env
          | None -> failwith "calibration: ring lost a batch");
          ignore (Sys.opaque_identity (Ring.take_completed ring env))
        done)
  in
  [
    ("workload.next_ns", F next_ns);
    ("index.lookup_ns", F lookup_ns);
    ("mem.far_access_ns", F far_ns);
    ("mem.near_access_ns", F near_ns);
    ("sim.dispatch_ns", F dispatch_ns);
    ("queue.ring_op_ns", F ring_op_ns);
  ]

(* ---- one run -------------------------------------------------------- *)

let slices = 20

let diff c1 c0 = List.map2 (fun (k, b) (_, a) -> (k, I (b - a))) c1 c0

let run ~workload ~seed ~trace ~tiny =
  let scale = scale ~tiny in
  let spec = spec_of ~keyspace:scale.H.keyspace workload in
  let probe = probe_make () in
  let t_setup = now_ns () in
  let reg = Metrics.create () in
  Metrics.set_current (Some reg);
  let built = H.build H.Mutps scale spec in
  Metrics.set_current None;
  let engine = built.H.engine in
  let lat = { buf = Array.make 1024 0; n = 0; on = false } in
  let clients =
    Client.start ~engine ~link:built.H.link
      ~transport:(observe_latency engine built.H.transport lat)
      {
        Client.clients = scale.H.clients;
        window = scale.H.window;
        spec;
        seed;
        dispatch = built.H.dispatch;
      }
  in
  let chk = { attempted = 0; wrong = 0; missing = 0 } in
  Client.on_completion clients (check_reply spec chk);
  Engine.run engine ~until:scale.H.warmup;
  let kv =
    match built.H.kv_mutps with
    | Some kv -> kv
    | None -> failwith "the simulator workloads run uTPS"
  in
  Kvs.Mutps.refresh_now kv;
  let setup_s = secs_since t_setup in
  let c0 = counts built reg in
  Client.reset_stats clients;
  lat.on <- true;
  let collector =
    if trace then Some (Trace.install ~keep_events:false engine) else None
  in
  (* the window runs in equal slices, timed; the host-speed probe runs
     before the first slice and after each one, outside the timed slices,
     so that its readings span the window *)
  let probes = Array.make (slices + 1) (probe_ns probe) in
  let t0 = Engine.now engine and spent = ref 0 in
  for k = 0 to slices - 1 do
    let w0 = now_ns () in
    Engine.run engine ~until:(t0 + ((k + 1) * scale.H.measure / slices));
    spent := !spent + (now_ns () - w0);
    probes.(k + 1) <- probe_ns probe
  done;
  let window_s = float_of_int !spent /. 1e9 in
  Engine.set_tracer engine None;
  lat.on <- false;
  let c1 = counts built reg in
  let ghz = H.ghz built.H.backend.Kvs.Backend.config in
  let pct p = percentile lat.buf ~n:lat.n p in
  let window =
    diff c1 c0
    @ [
        ("client.completed", I (Client.completed clients));
        ("client.sent", I (Client.sent clients));
        ("client.p50_cycles", I (pct 50.0));
        ("client.p99_cycles", I (pct 99.0));
      ]
  in
  let traced =
    match collector with
    | None -> []
    | Some c ->
      [
        ("sites", O (site_cycles c));
        ("calibration", O (calibrate ~tiny ~seed spec built));
      ]
  in
  [
    ("workload", S workload);
    ("seed", I seed);
    ("traced", I (if trace then 1 else 0));
    ("setup_s", F setup_s);
    ("window_s", F window_s);
    ("probe_ns", A probes);
    ("ghz", F ghz);
    ("attempted", I chk.attempted);
    ("wrong", I chk.wrong);
    ("missing", I chk.missing);
    ("counts", O window);
  ]
  @ traced
  @
  (* the probe is live until after the peak is read, so the peak holds it *)
  let peak = peak_rss_mb () -. probe_mb in
  ignore (Sys.opaque_identity probe);
  [ ("peak_rss_mb", F peak) ]
