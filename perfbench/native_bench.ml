(* The native workload: the native twin in Split mode behind a private
   Unix socket, driven open loop by the benchmark's own RESP client.

   One generator thread paces operations on a fixed schedule (op [i] is
   due at [start + i / rate]) over two pipelined connections, whatever
   the server's progress, and times every reply from when its request
   was due, so a stall is charged to every request queued behind it.
   Every GET reply is checked against the deterministic payload of its
   key; a wrong value, a [-ERR], a reply that never arrives or a dropped
   connection is a failed operation. *)

open Common
module Server = Mutps_native.Server
module Resp = Mutps_native.Resp
module Opgen = Mutps_workload.Opgen
module Request = Mutps_queue.Request
module Client = Mutps_net.Client

let workload = "native_zipf"
let value_size = 64

let spec ~keyspace =
  {
    Opgen.name = workload;
    keyspace;
    key_dist = Opgen.Zipfian 0.99;
    size_dist = Opgen.Fixed value_size;
    mix = { Opgen.get = 0.9; put = 0.1; scan = 0.0 };
    scan_len = 1;
  }

(* The fixed measurement plan.  The reference rate sits well under the
   knee, so its p50/p99 are the server's lightly loaded latency.  The
   ladder brackets the knee measured on a 2-vCPU box (pipelined open
   loop saturates at 77-100K ops/s); its latency limit is on the median,
   because on such a box millisecond host stalls set p99 at every rate
   (README.md). *)
type plan = {
  keyspace : int;
  warmup_s : float;
  ref_rate : int;
  ref_s : float;
  ladder : int list;
  rung_s : float;
  limit_us : float;
}

let plan ~tiny =
  if tiny then
    {
      keyspace = 4_000;
      warmup_s = 0.05;
      ref_rate = 5_000;
      ref_s = 0.2;
      ladder = [ 5_000; 10_000 ];
      rung_s = 0.1;
      limit_us = 100_000.0;
    }
  else
    {
      keyspace = 200_000;
      warmup_s = 0.3;
      ref_rate = 20_000;
      ref_s = 1.0;
      ladder =
        [ 40_000; 55_000; 65_000; 72_000; 79_000; 86_000; 93_000; 100_000;
          108_000; 116_000; 125_000; 140_000 ];
      rung_s = 0.4;
      limit_us = 1_000.0;
    }

(* ---- the open-loop RESP client --------------------------------------- *)

type pending = { idx : int; due : int; key : int64; get : bool }

type conn = {
  fd : Unix.file_descr;
  gen : Opgen.t;
  out : Buffer.t;  (* encoded requests not yet written *)
  mutable rbuf : bytes;
  mutable rlen : int;
  fifo : pending Queue.t;  (* sent, awaiting their in-order reply *)
}

type fails = {
  mutable attempted : int;  (** ops handed to a connection *)
  mutable wrong : int;
  mutable errors : int;
  mutable timeouts : int;
  mutable dropped : int;
}

(* Time spent in the benchmark's own Resp calls, kept only when traced. *)
type resp_time = {
  traced : bool;
  mutable enc_ns : int;
  mutable encs : int;
  mutable parse_ns : int;
  mutable parses : int;
}

type phase = {
  ops : int;
  lat : int array;  (** ns from due to reply, by op index (-1: none) *)
  gets : bool array;  (** by op index *)
  late : int array;  (** ns from due to hand-off to the socket *)
  backlog : int;  (** ops due but unanswered when the schedule ended *)
  elapsed_ns : int;  (** schedule start to last reply *)
}

exception Dropped

(* A dropped connection, a protocol error or a reply that never came:
   the run stops there. *)
exception Abort

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  fd

let flush_out c =
  let len = Buffer.length c.out in
  if len > 0 then begin
    let s = Buffer.contents c.out in
    match Unix.single_write_substring c.fd s 0 len with
    | n ->
      Buffer.clear c.out;
      if n < len then Buffer.add_substring c.out s n (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> raise Dropped
  end

let check_reply fails (p : pending) (reply : Resp.reply) =
  match reply with
  | Resp.Value v when p.get ->
    if not (Bytes.equal v (Client.payload ~key:p.key ~size:value_size)) then
      fails.wrong <- fails.wrong + 1
  | Resp.Ok_simple "OK" when not p.get -> ()
  | Resp.Error _ -> fails.errors <- fails.errors + 1
  | Resp.Value _ | Resp.Nil | Resp.Ok_simple _ -> fails.wrong <- fails.wrong + 1

(* Read whatever arrived and settle every complete reply. *)
let drain_replies c rt fails ~on_reply =
  if Bytes.length c.rbuf - c.rlen < 4096 then begin
    let bigger = Bytes.create (2 * Bytes.length c.rbuf) in
    Bytes.blit c.rbuf 0 bigger 0 c.rlen;
    c.rbuf <- bigger
  end;
  match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
  | 0 -> raise Dropped
  | n ->
    c.rlen <- c.rlen + n;
    let now = now_ns () in
    let continue = ref true in
    while !continue do
      let t0 = if rt.traced then now_ns () else 0 in
      let parsed = Resp.parse_reply c.rbuf ~len:c.rlen in
      if rt.traced then begin
        rt.parse_ns <- rt.parse_ns + (now_ns () - t0);
        rt.parses <- rt.parses + 1
      end;
      match parsed with
      | `Need_more -> continue := false
      | `Bad _ -> raise Dropped
      | `Ok (reply, consumed) ->
        Bytes.blit c.rbuf consumed c.rbuf 0 (c.rlen - consumed);
        c.rlen <- c.rlen - consumed;
        (match Queue.take_opt c.fifo with
        | None -> raise Dropped
        | Some p ->
          check_reply fails p reply;
          on_reply p (now - p.due))
    done
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> raise Dropped

let command_of (op : Opgen.op) =
  match op.Opgen.kind with
  | Request.Get -> Resp.Get op.Opgen.key
  | Request.Put ->
    Resp.Set (op.Opgen.key, Client.payload ~key:op.Opgen.key ~size:value_size)
  | Request.Delete | Request.Scan -> invalid_arg "native_zipf issues GET/SET only"

(* Offer [rate] ops/s for [seconds] and wait (bounded) for every reply. *)
let run_phase conns rt fails ~rate ~seconds =
  let total = max 1 (int_of_float (float_of_int rate *. seconds)) in
  let nconns = Array.length conns in
  let lat = Array.make total (-1) and late = Array.make total 0 in
  let gets = Array.make total false in
  let nlat = ref 0 in
  let on_reply (p : pending) l =
    lat.(p.idx) <- l;
    gets.(p.idx) <- p.get;
    incr nlat
  in
  let period = 1e9 /. float_of_int rate in
  let start = now_ns () in
  let due i = start + int_of_float (float_of_int i *. period) in
  let sent = ref 0 and backlog = ref (-1) in
  let grace_ns = 5_000_000_000 in
  let outstanding () = Array.fold_left (fun a c -> a + Queue.length c.fifo) 0 conns in
  (try
     while !sent < total || outstanding () > 0 do
       let now = now_ns () in
       while !sent < total && due !sent <= now do
         let c = conns.(!sent mod nconns) in
         let op = Opgen.next c.gen in
         let cmd = command_of op in
         let t0 = if rt.traced then now_ns () else 0 in
         Resp.encode_command c.out cmd;
         if rt.traced then begin
           rt.enc_ns <- rt.enc_ns + (now_ns () - t0);
           rt.encs <- rt.encs + 1
         end;
         Queue.add
           {
             idx = !sent;
             due = due !sent;
             key = op.Opgen.key;
             get = op.Opgen.kind = Request.Get;
           }
           c.fifo;
         late.(!sent) <- now - due !sent;
         fails.attempted <- fails.attempted + 1;
         incr sent
       done;
       if !sent = total && !backlog < 0 then backlog := outstanding ();
       Array.iter flush_out conns;
       Array.iter (fun c -> drain_replies c rt fails ~on_reply) conns;
       if !sent = total && now - due total > grace_ns then begin
         fails.timeouts <- fails.timeouts + outstanding ();
         raise Abort
       end
     done
   with Dropped ->
     fails.dropped <- fails.dropped + outstanding ();
     raise Abort);
  {
    ops = !nlat;
    lat;
    gets;
    late = Array.sub late 0 !sent;
    backlog = max 0 !backlog;
    elapsed_ns = now_ns () - start;
  }

let us ns = float_of_int ns /. 1e3
let secs (ph : phase) = float_of_int ph.elapsed_ns /. 1e9

(* Percentile (in us) of the answered ops that satisfy [keep]. *)
let pct ?(keep = fun _ -> true) (ph : phase) p =
  let a = Array.make (Array.length ph.lat) 0 and n = ref 0 in
  Array.iteri
    (fun i l ->
      if l >= 0 && keep i then begin
        a.(!n) <- l;
        incr n
      end)
    ph.lat;
  us (percentile a ~n:!n p)

type rung = {
  rate : int;
  p50 : float;  (** us *)
  p99 : float;
  backlog : int;
  achieved : float;  (** answered ops per second of the rung *)
  elapsed_s : float;
}

(* A rung passes when its median meets the limit and the server kept up
   with the schedule: it answered the rung's ops at no less than
   [keep_up] of the offered rate, timed from the schedule's start to the
   last reply.  A queue that grows for the whole rung falls short by the
   overload; a host stall of a few ms at the rung's end, which the
   backlog at one instant would count in full, costs about 1%. *)
let keep_up = 0.95

let passes plan r =
  r.p50 <= plan.limit_us && r.achieved >= keep_up *. float_of_int r.rate

(* The highest offered rate that passes.  Past the last rung that passed,
   a rung that failed on latency is interpolated (log latency, linear
   rate), one that failed on throughput gives the rate it answered at,
   both kept between the two rungs' rates; the ladder stops at the first
   failure. *)
let slo_rate plan rungs =
  let limit = plan.limit_us in
  let rec go prev = function
    | [] -> (match prev with Some r -> float_of_int r.rate | None -> 0.0)
    | r :: rest ->
      if passes plan r then go (Some r) rest
      else begin
        let lo = match prev with Some r0 -> float_of_int r0.rate | None -> 0.0 in
        let hi = float_of_int r.rate in
        let est =
          if r.p50 <= limit then r.achieved
          else
            match prev with
            | None -> hi *. (limit /. r.p50)
            | Some r0 ->
              let f = (log limit -. log r0.p50) /. (log r.p50 -. log r0.p50) in
              let f = if Float.is_nan f then 0.0 else f in
              lo +. ((hi -. lo) *. f)
        in
        Float.min hi (Float.max lo est)
      end
  in
  go None rungs

let sock_path () =
  if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
  Printf.sprintf ".perfbench/native-%d.sock" (Unix.getpid ())

(* The server runs in a forked child so that its domains and the
   generator never share a runtime: OCaml 5 stops every domain of a
   process for each minor collection, which would couple the generator's
   pauses to the server's and back.  The child serves until the control
   pipe says stop (or closes because the parent died), then reports its
   tallies and its own peak RSS on the result pipe. *)
type server = { pid : int; ctl : Unix.file_descr; results : in_channel }

let serve_child ~path ~keyspace ~ctl ~res =
  let out = Unix.out_channel_of_descr res in
  let h =
    Server.launch
      {
        Server.default_config with
        mode = Server.Split;
        listen = Server.Unix_path path;
        domains = 1;
        shards = 2;
        keyspace;
        value_size;
      }
  in
  output_string out "ready\n";
  flush out;
  (* 'r' asks for the peak RSS so far; anything else, or EOF, stops *)
  let cmd = Bytes.create 1 in
  let rec serve () =
    match Unix.read ctl cmd 0 1 with
    | 1 when Bytes.get cmd 0 = 'r' ->
      Printf.fprintf out "%.17g\n" (peak_rss_mb ());
      flush out;
      serve ()
    | _ | (exception Unix.Unix_error _) -> ()
  in
  serve ();
  Server.stop h;
  let s = Server.wait h in
  Printf.fprintf out "%d %d %d %d %d %.17g\n" s.Server.responded s.Server.cr_hits
    s.Server.forwarded s.Server.mr_ops s.Server.steals (peak_rss_mb ());
  flush out

let start_server ~path ~keyspace =
  let ctl_r, ctl_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close ctl_w;
    Unix.close res_r;
    let code =
      match serve_child ~path ~keyspace ~ctl:ctl_r ~res:res_w with
      | () -> 0
      | exception e ->
        prerr_endline ("native server: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close ctl_r;
    Unix.close res_w;
    let results = Unix.in_channel_of_descr res_r in
    (match input_line results with
    | "ready" -> ()
    | line -> failwith ("native server did not start: " ^ line)
    | exception End_of_file -> failwith "native server exited during start-up");
    { pid; ctl = ctl_w; results }

type tallies = {
  responded : int;
  cr_hits : int;
  forwarded : int;
  mr_ops : int;
  steals : int;
  server_rss_mb : float;
}

let server_rss_mb srv =
  ignore (Unix.write_substring srv.ctl "r" 0 1);
  float_of_string (input_line srv.results)

(* Error path: closing the control pipe stops the child; reap it. *)
let abort_server srv =
  (try Unix.close srv.ctl with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] srv.pid)

let stop_server srv =
  ignore (Unix.write_substring srv.ctl "x" 0 1);
  Unix.close srv.ctl;
  let line = input_line srv.results in
  close_in srv.results;
  (match Unix.waitpid [] srv.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "native server exited abnormally");
  Scanf.sscanf line "%d %d %d %d %d %f"
    (fun responded cr_hits forwarded mr_ops steals server_rss_mb ->
      { responded; cr_hits; forwarded; mr_ops; steals; server_rss_mb })

let run ~seed ~trace ~tiny =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let plan = plan ~tiny in
  let spec = spec ~keyspace:plan.keyspace in
  let path = sock_path () in
  let t_setup = now_ns () in
  let srv = start_server ~path ~keyspace:plan.keyspace in
  let conns =
    Array.init 2 (fun i ->
        {
          fd = connect path;
          gen = Opgen.make spec ~seed:((seed * 1_000) + i);
          out = Buffer.create 4096;
          rbuf = Bytes.create 8192;
          rlen = 0;
          fifo = Queue.create ();
        })
  in
  let setup_s = secs_since t_setup in
  let fails = { attempted = 0; wrong = 0; errors = 0; timeouts = 0; dropped = 0 } in
  let off = { traced = false; enc_ns = 0; encs = 0; parse_ns = 0; parses = 0 } in
  let phase ?(rt = off) ~rate seconds = run_phase conns rt fails ~rate ~seconds in
  let reference_rss = ref 0.0 in
  let result =
    match
      ignore (phase ~rate:plan.ref_rate plan.warmup_s);
      let reference = phase ~rate:plan.ref_rate plan.ref_s in
      reference_rss := server_rss_mb srv;
      if trace then begin
        let rt = { off with traced = true } in
        let traced = phase ~rt ~rate:plan.ref_rate plan.ref_s in
        `Traced (reference, traced, rt)
      end
      else begin
        let rec climb acc = function
          | [] -> List.rev acc
          | rate :: rest ->
            let p = phase ~rate plan.rung_s in
            let row =
              {
                rate;
                p50 = pct p 50.0;
                p99 = pct p 99.0;
                backlog = p.backlog;
                achieved = float_of_int p.ops /. secs p;
                elapsed_s = secs p;
              }
            in
            if passes plan row then climb (row :: acc) rest else List.rev (row :: acc)
        in
        `Plain (reference, climb [] plan.ladder)
      end
    with
    | r -> Ok r
    | exception Abort -> Error ()
    | exception e ->
      abort_server srv;
      raise e
  in
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  let summary = stop_server srv in
  let failed = fails.wrong + fails.errors + fails.timeouts + fails.dropped in
  let common =
    [
      ("workload", S workload);
      ("seed", I seed);
      ("traced", I (if trace then 1 else 0));
      ("setup_s", F setup_s);
      ("attempted", I fails.attempted);
      ("wrong", I fails.wrong);
      ("errors", I fails.errors);
      ("timeouts", I fails.timeouts);
      ("dropped", I fails.dropped);
      ("failed", I failed);
      ("responded", I summary.responded);
      ("cr_hits", I summary.cr_hits);
      ("forwarded", I summary.forwarded);
      ("mr_ops", I summary.mr_ops);
      ("steals", I summary.steals);
    ]
  in
  let reference_fields (p : phase) =
    [
      ("ref_rate", I plan.ref_rate);
      ("ref_samples", I p.ops);
      ("p50_us", F (pct p 50.0));
      ("p99_us", F (pct p 99.0));
      ("get_p99_us", F (pct ~keep:(fun i -> p.gets.(i)) p 99.0));
      ("set_p99_us", F (pct ~keep:(fun i -> not p.gets.(i)) p 99.0));
      ("late_p99_us", F (us (percentile p.late ~n:(Array.length p.late) 99.0)));
      ("backlog", I p.backlog);
      ("ref_elapsed_s", F (secs p));
    ]
  in
  let body =
    match result with
    | Error () -> []
    | Ok (`Plain (reference, rungs)) ->
      reference_fields reference
      @ [
          ( "measured_s",
            F (List.fold_left (fun a r -> a +. r.elapsed_s) (secs reference) rungs) );
          ("limit_us", F plan.limit_us);
          ("slo_ops_per_s", F (slo_rate plan rungs));
          ( "ladder",
            O
              (List.map
                 (fun r ->
                   ( string_of_int r.rate,
                     O
                       [
                         ("p50_us", F r.p50);
                         ("p99_us", F r.p99);
                         ("backlog", I r.backlog);
                         ("achieved", F r.achieved);
                       ] ))
                 rungs) );
        ]
    | Ok (`Traced (reference, traced, rt)) ->
      let per n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d in
      reference_fields reference
      @ [
          ("measured_s", F (secs reference +. secs traced));
          ("traced_elapsed_s", F (secs traced));
          ("resp_encode_ns", F (per rt.enc_ns rt.encs));
          ("resp_parse_ns", F (per rt.parse_ns rt.parses));
        ]
  in
  common @ body
  @ [
      ("peak_rss_mb", F !reference_rss);
      ("end_rss_mb", F summary.server_rss_mb);
    ]
