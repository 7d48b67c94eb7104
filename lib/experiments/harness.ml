(** Shared experiment harness: build a system, pre-populate, drive it with
    closed-loop clients, measure after a warm-up window.

    μTPS datapoints run a short "trisection-lite" calibration (three
    candidate thread splits, picking the best over a quarter-length probe)
    standing in for a full auto-tuner pass on every grid cell; Figures 13
    and 14 exercise the real {!Mutps_kvs.Autotuner}. *)

module Engine = Mutps_sim.Engine
module Stats = Mutps_sim.Stats
module Opgen = Mutps_workload.Opgen
module Client = Mutps_net.Client
module Hierarchy = Mutps_mem.Hierarchy
module Sample = Mutps_sample.Sample
module Signature = Mutps_sample.Signature
module Kvs = Mutps_kvs

type scale = {
  keyspace : int;
  cores : int;
  clients : int;
  window : int;
  warmup : int;  (** cycles before stats reset *)
  measure : int;  (** measured cycles *)
  sample : Sample.cfg option;
      (** interval sampling: simulate only representative intervals of
          the measured window and reconstruct full-run estimates with
          error bounds (paper-scale runs); [None] = exact *)
}

(* Default scale: 200K-item store (vs the paper's 10M — same
   LLC-overflowing regime, tractable wall time), 12 worker cores, 256
   outstanding requests (saturating), 4 ms warmup + 10 ms measured. *)
let default_scale =
  {
    keyspace = 200_000;
    cores = 12;
    clients = 64;
    window = 4;
    warmup = 10_000_000;
    measure = 25_000_000;
    sample = None;
  }

(* [default_scale] with keyspace, clients and both windows multiplied
   by [f]: the meaning of MUTPS_BENCH_SCALE=[f]. *)
let scaled f =
  let scaled v = max 1 (int_of_float (float_of_int v *. f)) in
  {
    default_scale with
    keyspace = scaled default_scale.keyspace;
    warmup = scaled default_scale.warmup;
    measure = scaled default_scale.measure;
    (* saturation needs outstanding depth even at small scale *)
    clients = max 48 (scaled default_scale.clients);
  }

let scale_from_env () =
  match Sys.getenv_opt "MUTPS_BENCH_SCALE" with
  | None | Some "" -> default_scale
  | Some s -> scaled (float_of_string s)

type system = Mutps | Basekv | Erpckv

let system_name = function
  | Mutps -> "uTPS"
  | Basekv -> "BaseKV"
  | Erpckv -> "eRPC-KV"

type measurement = {
  mops : float;
  p50_us : float;
  p99_us : float;
  completed : int;
  cr_hit_rate : float;  (** μTPS only; 0 otherwise *)
  extra : (string * float) list;
      (** additional metrics carried into the report row; sampled runs
          put their per-metric error bounds ([mops_err], ...) and
          sampling bookkeeping ([sample_phases], [sample_coverage], ...)
          here.  Empty for exact runs. *)
}

let ghz config = config.Kvs.Config.costs.Mutps_mem.Costs.ghz

let populate_size (spec : Opgen.spec) =
  let m = int_of_float (Opgen.mean_value_size spec) in
  max 8 m

let mk_config ?(index = Kvs.Config.Tree) ?(tweak = Fun.id) (scale : scale) =
  let c = Kvs.Config.default ~cores:scale.cores ~index ~capacity:scale.keyspace () in
  tweak
    {
      c with
      (* refresh the hot set every simulated 2 ms so warmup suffices *)
      Kvs.Config.refresh_cycles = 5_000_000;
      (* keep the paper's footprint-to-LLC pressure at reduced keyspace *)
      geometry =
        Some (Kvs.Config.scaled_geometry ~cores:scale.cores ~keyspace:scale.keyspace);
      (* hot set sized like the paper's 10K of 10M: same Zipfian coverage *)
      hot_k = max 64 (scale.keyspace / 200);
    }

type built = {
  engine : Engine.t;
  link : Mutps_net.Link.t;
  transport : Mutps_net.Transport.t;
  dispatch : Opgen.op -> int;
  kv_mutps : Kvs.Mutps.t option;
  backend : Kvs.Backend.t;
}

let build ?index ?ncr ?tweak system (scale : scale) (spec : Opgen.spec) =
  (* label metric registrations (and thus counter tracks) with the system
     under test — fig2-style experiments build several per run *)
  (match Mutps_trace.Metrics.current () with
  | Some reg -> Mutps_trace.Metrics.set_scope reg (system_name system)
  | None -> ());
  let config = mk_config ?index ?tweak scale in
  let vsize = populate_size spec in
  match system with
  | Basekv ->
    let kv = Kvs.Basekv.create config in
    Kvs.Backend.populate
      ~size_of:(Opgen.size_for_key spec)
      (Kvs.Basekv.backend kv) ~keyspace:scale.keyspace ~value_size:vsize;
    Kvs.Basekv.start kv;
    let b = Kvs.Basekv.backend kv in
    {
      engine = b.Kvs.Backend.engine;
      link = b.Kvs.Backend.link;
      transport = Kvs.Basekv.transport kv;
      dispatch = Client.uniform_dispatch;
      kv_mutps = None;
      backend = b;
    }
  | Erpckv ->
    let kv = Kvs.Erpckv.create config in
    Kvs.Backend.populate
      ~size_of:(Opgen.size_for_key spec)
      (Kvs.Erpckv.backend kv) ~keyspace:scale.keyspace ~value_size:vsize;
    Kvs.Erpckv.start kv;
    let b = Kvs.Erpckv.backend kv in
    {
      engine = b.Kvs.Backend.engine;
      link = b.Kvs.Backend.link;
      transport = Kvs.Erpckv.transport kv;
      dispatch = Kvs.Erpckv.dispatch kv;
      kv_mutps = None;
      backend = b;
    }
  | Mutps ->
    let kv = Kvs.Mutps.create ?ncr config in
    Kvs.Backend.populate
      ~size_of:(Opgen.size_for_key spec)
      (Kvs.Mutps.backend kv) ~keyspace:scale.keyspace ~value_size:vsize;
    Kvs.Mutps.start kv;
    let b = Kvs.Mutps.backend kv in
    {
      engine = b.Kvs.Backend.engine;
      link = b.Kvs.Backend.link;
      transport = Kvs.Mutps.transport kv;
      dispatch = Client.uniform_dispatch;
      kv_mutps = Some kv;
      backend = b;
    }

let start_clients built (scale : scale) spec =
  Client.start ~engine:built.engine ~link:built.link ~transport:built.transport
    {
      Client.clients = scale.clients;
      window = scale.window;
      spec;
      seed = 7;
      dispatch = built.dispatch;
    }

(* Probe candidate CR/MR splits over short windows and keep the best — the
   grid-cell stand-in for a full auto-tuner pass. *)
let calibrate_split ?probe built (scale : scale) clients =
  match built.kv_mutps with
  | None -> ()
  | Some kv ->
    let cores = scale.cores in
    let frac num den = max 1 (min (cores - 1) (num * cores / den)) in
    let candidates =
      List.sort_uniq compare
        [ frac 1 4; frac 3 8; frac 1 2; frac 2 3; frac 3 4 ]
    in
    let probe =
      match probe with
      | Some p -> p
      | None -> max 2_500_000 (scale.measure / 6)
    in
    let best = ref (-1) and best_rate = ref (-1) in
    List.iter
      (fun ncr ->
        Kvs.Mutps.set_split kv ~ncr;
        (* settle, then probe *)
        Engine.run built.engine ~until:(Engine.now built.engine + (probe / 2));
        let c0 = Client.completed clients in
        Engine.run built.engine ~until:(Engine.now built.engine + probe);
        let rate = Client.completed clients - c0 in
        if rate > !best_rate then begin
          best_rate := rate;
          best := ncr
        end)
      candidates;
    Kvs.Mutps.set_split kv ~ncr:!best;
    Engine.run built.engine ~until:(Engine.now built.engine + (probe / 2));
    (* probe the cache-resize axis too: under write-heavy skew, serving hot
       puts at the CR layer can concentrate lock contention, and the tuner's
       answer is to shrink the hot set (Â§3.5 cache resizing / Figure 13c) *)
    let hot_default = Kvs.Mutps.hot_target kv in
    let measure_hot hot =
      Kvs.Mutps.set_hot_target kv hot;
      Kvs.Mutps.refresh_now kv;
      Engine.run built.engine ~until:(Engine.now built.engine + (probe / 2));
      let c0 = Client.completed clients in
      Engine.run built.engine ~until:(Engine.now built.engine + probe);
      Client.completed clients - c0
    in
    let with_default = measure_hot hot_default in
    let with_zero = measure_hot 0 in
    if with_default >= with_zero then begin
      Kvs.Mutps.set_hot_target kv hot_default;
      Kvs.Mutps.refresh_now kv;
      (* wait until the republished hot set is live again *)
      let guard = ref 0 in
      while Kvs.Mutps.hot_size kv = 0 && !guard < 40 do
        Engine.run built.engine ~until:(Engine.now built.engine + (probe / 8));
        incr guard
      done
    end

let measure_exact ?index ?ncr ?tweak ~calibrate ?customize system scale spec =
  let built = build ?index ?ncr ?tweak system scale spec in
  (match customize with Some f -> f built | None -> ());
  let clients = start_clients built scale spec in
  Engine.run built.engine ~until:scale.warmup;
  if system = Mutps && calibrate then calibrate_split built scale clients;
  (match built.kv_mutps with
  | Some kv -> Kvs.Mutps.refresh_now kv
  | None -> ());
  let t0 = Engine.now built.engine in
  Client.reset_stats clients;
  let hits0 =
    match built.kv_mutps with Some kv -> Kvs.Mutps.cr_hits kv | None -> 0
  in
  Engine.run built.engine ~until:(t0 + scale.measure);
  let completed = Client.completed clients in
  let hist = Client.latency clients in
  let g = ghz (mk_config scale) in
  let cycles_to_us c = float_of_int c /. g /. 1000.0 in
  let cr_hit_rate =
    match built.kv_mutps with
    | Some kv when completed > 0 ->
      float_of_int (Kvs.Mutps.cr_hits kv - hits0) /. float_of_int completed
    | _ -> 0.0
  in
  {
    mops = Stats.mops ~ops:completed ~cycles:scale.measure ~ghz:g;
    p50_us = cycles_to_us (Stats.Hist.percentile hist 50.0);
    p99_us = cycles_to_us (Stats.Hist.percentile hist 99.0);
    completed;
    cr_hit_rate;
    extra = [];
  }

(* ---- interval sampling (lib/sample) ------------------------------- *)

(* Warmup brings the caches and hot set to steady state; its length does
   not need to track a paper-scale measured window. *)
let sampled_warmup cfg (scale : scale) = min scale.warmup cfg.Sample.max_warmup

(* Short calibration probes in sampled mode: the exact-mode formula
   scales with the (possibly enormous) nominal window. *)
let sampled_probe (scale : scale) =
  max 100_000 (min 2_500_000 (scale.measure / 6))

(* Aggregated hierarchy counters as ad-hoc signature features, for
   drivers that run without a metrics registry (fig2a replay, fig2b). *)
let hier_signature_counters hier =
  let cores = Hierarchy.cores hier in
  let agg f () =
    let acc = ref 0 in
    for core = 0 to cores - 1 do
      acc := !acc + f (Hierarchy.core_stats hier ~core)
    done;
    float_of_int !acc
  in
  [|
    agg (fun s -> s.Hierarchy.l1_hits);
    agg (fun s -> s.Hierarchy.l2_hits);
    agg (fun s -> s.Hierarchy.llc_hits);
    agg (fun s -> s.Hierarchy.dram_fetches);
    agg (fun s -> s.Hierarchy.invalidations_sent);
    agg (fun s -> s.Hierarchy.dirty_transfers);
  |]

(* Per-interval estimates scale to full-run numbers: ops in an interval
   of [cfg.interval] cycles -> Mops, and -> a completed count over the
   nominal window. *)
let sampled_mops cfg ~ghz v = v /. float_of_int cfg.Sample.interval *. ghz *. 1000.0

let measure_sampled ?index ?ncr ?tweak ~calibrate ?customize cfg system
    (scale : scale) spec =
  (* a private registry so the build's subsystem constructors register
     this system's signature sources, whatever the ambient observability
     setup; restored right after the build *)
  let outer = Mutps_trace.Metrics.current () in
  let reg = Mutps_trace.Metrics.create () in
  Mutps_trace.Metrics.set_current (Some reg);
  let built =
    Fun.protect
      ~finally:(fun () -> Mutps_trace.Metrics.set_current outer)
      (fun () -> build ?index ?ncr ?tweak system scale spec)
  in
  (match customize with Some f -> f built | None -> ());
  let clients = start_clients built scale spec in
  Engine.run built.engine ~until:(sampled_warmup cfg scale);
  if system = Mutps && calibrate then
    calibrate_split ~probe:(sampled_probe scale) built scale clients;
  (match built.kv_mutps with
  | Some kv -> Kvs.Mutps.refresh_now kv
  | None -> ());
  let hier = built.backend.Kvs.Backend.hier in
  let src =
    Signature.of_metrics ~engine_id:(Engine.id built.engine) reg
  in
  let hits0 = ref 0 in
  let probe =
    {
      Sample.set_warming =
        (fun on ->
          Hierarchy.set_warming hier on;
          Client.set_recording clients (not on));
      begin_interval =
        (fun () ->
          Client.reset_stats clients;
          hits0 :=
            (match built.kv_mutps with
            | Some kv -> Kvs.Mutps.cr_hits kv
            | None -> 0));
      end_interval =
        (fun () ->
          let completed = Client.completed clients in
          let hist = Client.latency clients in
          let hits =
            (match built.kv_mutps with
            | Some kv -> Kvs.Mutps.cr_hits kv
            | None -> 0)
            - !hits0
          in
          [
            ("ops", float_of_int completed);
            ("p50", float_of_int (Stats.Hist.percentile hist 50.0));
            ("p99", float_of_int (Stats.Hist.percentile hist 99.0));
            ("cr_hits", float_of_int hits);
          ]);
      signature = (fun () -> Signature.take src);
    }
  in
  let o = Sample.run cfg ~engine:built.engine ~probe ~measure:scale.measure in
  let g = ghz (mk_config scale) in
  let est name = List.assoc name o.Sample.metrics in
  let ops = est "ops" and p50 = est "p50" and p99 = est "p99" in
  let crh = est "cr_hits" in
  let cycles_to_us c = c /. g /. 1000.0 in
  let full v = v *. float_of_int scale.measure /. float_of_int cfg.Sample.interval in
  let safe_ops = Float.max ops.Sample.value 1.0 in
  let cr_hit_rate =
    match built.kv_mutps with
    | Some _ -> Float.max 0.0 (crh.Sample.value /. safe_ops)
    | None -> 0.0
  in
  (* ratio error: relative errors of numerator and denominator add *)
  let cr_hit_rate_err =
    cr_hit_rate
    *. ((crh.Sample.err /. Float.max crh.Sample.value 1.0)
        +. (ops.Sample.err /. safe_ops))
  in
  {
    mops = sampled_mops cfg ~ghz:g ops.Sample.value;
    p50_us = cycles_to_us p50.Sample.value;
    p99_us = cycles_to_us p99.Sample.value;
    completed = int_of_float (Float.round (full ops.Sample.value));
    cr_hit_rate;
    extra =
      [
        ("mops_err", sampled_mops cfg ~ghz:g ops.Sample.err);
        ("p50_us_err", cycles_to_us p50.Sample.err);
        ("p99_us_err", cycles_to_us p99.Sample.err);
        ("completed_err", Float.round (full ops.Sample.err));
        ("cr_hit_rate_err", cr_hit_rate_err);
        ("sample_phases", float_of_int o.Sample.phases);
        ("sample_intervals", float_of_int o.Sample.intervals);
        ("sample_detailed", float_of_int o.Sample.detailed);
        ("sample_coverage", o.Sample.coverage);
      ];
  }

let measure ?index ?ncr ?tweak ?(calibrate = true) ?customize system scale spec =
  match scale.sample with
  | None ->
    measure_exact ?index ?ncr ?tweak ~calibrate ?customize system scale spec
  | Some cfg ->
    measure_sampled ?index ?ncr ?tweak ~calibrate ?customize cfg system scale
      spec

(* Domain-local output sink.  Experiments never print to stdout directly;
   they write through [printf]/[print_table], which the parallel runner
   redirects into a per-experiment buffer so concurrent experiments do
   not interleave their tables.  Outside the runner (and in the default
   per-domain state) output still lands on stdout.  Deliberately not
   inherited at domain spawn: a worker writes to stdout unless the runner
   explicitly installs its buffer. *)
let sink : Buffer.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let print_string s =
  match Domain.DLS.get sink with
  | Some b -> Buffer.add_string b s
  | None ->
    Stdlib.print_string s;
    Stdlib.flush Stdlib.stdout

let printf fmt = Printf.ksprintf print_string fmt

let with_output buf f =
  let prev = Domain.DLS.get sink in
  Domain.DLS.set sink (Some buf);
  Fun.protect ~finally:(fun () -> Domain.DLS.set sink prev) f

let section title = printf "\n=== %s ===\n" title
let print_table t = print_string (Table.to_string t)

