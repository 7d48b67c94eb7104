(** Run-to-completion worker pool: each worker handles its requests start
    to finish (poll → parse → index → data → respond).  Batching and
    prefetching are enabled (the worker drains up to [batch] requests and
    indexes them together), matching the paper's BaseKV ("optimizations
    such as reconfigurable RPC, batching, and prefetching are enabled").

    Parameterized by transport and lock mode, this pool is both BaseKV
    (reconfigurable RPC + share-everything locking) and eRPC-KV (eRPC +
    share-nothing exclusive writes). *)

module Env = Mutps_mem.Env
module Simthread = Mutps_sim.Simthread
module Transport = Mutps_net.Transport

type stats = { mutable ops : int; mutable batches : int }

(* How a worker behaves between requests — the execution-substrate seam.
   Under the DES, idling advances the simulated clock and batch boundaries
   flush the cycle accumulator.  The native backend substitutes fiber
   yields (and a stop check) for both, so the very same loop serves real
   sockets on real domains. *)
type substrate = {
  make_env : Mutps_sim.Simthread.ctx -> core:int -> Env.t;
  idle : Mutps_sim.Simthread.ctx -> unit;  (** nothing polled *)
  flush : Mutps_sim.Simthread.ctx -> unit;  (** end of a batch *)
}

let sim_substrate (cfg : Config.t) ~hier =
  {
    make_env = (fun ctx ~core -> Env.make ~ctx ~hier ~core);
    idle = (fun ctx -> Simthread.delay ctx cfg.Config.poll_idle_cycles);
    flush = (fun ctx -> Simthread.commit ctx);
  }

let make_stats () = { ops = 0; batches = 0 }

let worker_body ?substrate (backend : Backend.t) (tr : Transport.t) ~lock
    ~worker (stats : stats) ctx =
  let cfg = backend.Backend.config in
  let sub =
    match substrate with
    | Some s -> s
    | None -> sim_substrate cfg ~hier:backend.Backend.hier
  in
  let env = sub.make_env ctx ~core:worker in
  let polled = Array.make cfg.Config.batch None in
  while true do
    (* drain up to a batch of requests from our slots *)
    let n = ref 0 in
    let continue = ref true in
    while !continue && !n < cfg.Config.batch do
      match tr.Transport.poll env ~worker with
      | Some _ as p ->
        Env.compute env (cfg.Config.parse_cycles + cfg.Config.rtc_extra_cycles);
        polled.(!n) <- p;
        incr n
      | None -> continue := false
    done;
    if !n = 0 then sub.idle ctx
    else begin
      stats.batches <- stats.batches + 1;
      stats.ops <- stats.ops + !n;
      let msg i = snd (Option.get polled.(i)) in
      let located = Exec.batch_lookup env backend.Backend.index ~n:!n msg in
      for i = 0 to !n - 1 do
        let seq, msg = Option.get polled.(i) in
        let req = Fwd.make ~seq ~cr:worker ~msg ~prefix:[] in
        Exec.execute env tr backend ~lock ~worker ~skip:Exec.no_skip req
          located.(i);
        Exec.post env tr req
      done;
      sub.flush ctx
    end
  done

let start backend tr ~lock ~workers =
  let stats = Array.init workers (fun _ -> make_stats ()) in
  for w = 0 to workers - 1 do
    Simthread.spawn backend.Backend.engine
      ~name:(Printf.sprintf "rtc-%d" w)
      (worker_body backend tr ~lock ~worker:w stats.(w))
  done;
  stats
