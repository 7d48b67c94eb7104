(** The one per-operation executor: every thread model answers a request
    through {!execute} once its index lookup is done.  All memory traffic
    is charged through the worker's {!Mutps_mem.Env}. *)

module Env = Mutps_mem.Env
module Item = Mutps_store.Item
module Index = Mutps_index.Index_intf
module Request = Mutps_queue.Request
module Transport = Mutps_net.Transport
module Message = Mutps_net.Message

(** [Locked] uses the seqlock protocol (share-everything); [Exclusive]
    skips it (share-nothing: the owning thread is the only writer). *)
type lock_mode = Locked | Exclusive

let ack_bytes = 16

let post env (tr : Transport.t) (req : Fwd.t) =
  tr.Transport.post_response env ~seq:req.Fwd.seq ~resp_addr:req.Fwd.resp_addr
    ~bytes:req.Fwd.resp_bytes ~value:req.Fwd.resp_value

let no_skip (_ : int64) = false

let is_point (msg : Message.t) =
  match msg.Message.req.Request.kind with
  | Request.Get | Request.Put -> true
  | Request.Delete | Request.Scan -> false

let locate env (index : Index.t) (msg : Message.t) =
  if is_point msg then index.Index.lookup env msg.Message.req.Request.key
  else None

(* Arrays and counters, not a list pipeline: this runs once per MR batch,
   and the lists cost the fig2a hot loop ~0.9 words per engine event. *)
let batch_lookup env (index : Index.t) ~n msg =
  let points = ref 0 in
  for i = 0 to n - 1 do
    if is_point (msg i) then incr points
  done;
  let keys = Array.make !points 0L and k = ref 0 in
  for i = 0 to n - 1 do
    let m = msg i in
    if is_point m then begin
      keys.(!k) <- m.Message.req.Request.key;
      incr k
    end
  done;
  let found = index.Index.batch_lookup env keys in
  (* overlap the data-item fetches too (§3.3: batching covers the copy
     stage's cache misses as well) *)
  let hits = ref 0 in
  Array.iter (fun it -> if Option.is_some it then incr hits) found;
  if !hits > 0 then begin
    let addrs = Array.make !hits 0 and k = ref 0 in
    Array.iter
      (function
        | Some it ->
          addrs.(!k) <- Item.addr it;
          incr k
        | None -> ())
      found;
    Env.prefetch_batch env addrs
  end;
  if !points = n then found
  else begin
    let located = Array.make n None and k = ref 0 in
    for i = 0 to n - 1 do
      if is_point (msg i) then begin
        located.(i) <- found.(!k);
        incr k
      end
    done;
    located
  end

(* Response bytes of a range scan.  Entries the CR layer already copied
   are counted only; the index walk skips keys already in [prefix] and
   reads the rest unless [skip] says the item was handled. *)
let scan_bytes env (index : Index.t) ~key ~count ~skip ~prefix =
  let rest = index.Index.range env ~lo:key ~n:count in
  let copied = ref 0 and bytes = ref ack_bytes in
  let add ~read (k, item) =
    if !copied < count then begin
      let size =
        if read && not (skip k) then Bytes.length (Item.read env item)
        else Item.size item
      in
      bytes := !bytes + 16 + size;
      incr copied
    end
  in
  List.iter (add ~read:false) prefix;
  List.iter
    (fun ((k, _) as entry) ->
      if not (List.mem_assoc k prefix) then add ~read:true entry)
    rest;
  !bytes

let load_or_store env ~write ~addr ~size =
  if write then Env.store env ~addr ~size else Env.load env ~addr ~size

(* A load or store labelled [site] in traced profiles; untraced runs skip
   the label and the closure it needs. *)
let access env site ~write ~addr ~size =
  if Env.tracing env then
    Env.tagged env site (fun () -> load_or_store env ~write ~addr ~size)
  else load_or_store env ~write ~addr ~size

(* Write a [bytes]-byte response (at most [cap] bytes of it) into a fresh
   slot of [worker]'s response buffer and record it in [req]. *)
let respond (tr : Transport.t) env ~worker (req : Fwd.t) ~cap ~bytes value =
  let size = min bytes cap in
  let resp_addr = tr.Transport.resp_alloc ~worker ~bytes:size in
  access env "Exec.respond" ~write:true ~addr:resp_addr ~size;
  req.Fwd.resp_addr <- resp_addr;
  req.Fwd.resp_bytes <- bytes;
  req.Fwd.resp_value <- value

let ack tr env ~worker req =
  respond tr env ~worker req ~cap:ack_bytes ~bytes:ack_bytes None

let execute env (tr : Transport.t) (backend : Backend.t) ~lock ~worker ~skip
    (req : Fwd.t) located =
  let index = backend.Backend.index and slab = backend.Backend.slab in
  let msg = req.Fwd.msg in
  let key = msg.Message.req.Request.key in
  match (msg.Message.req.Request.kind, located) with
  | Request.Get, Some item ->
    let value = Item.read env item in
    let bytes = ack_bytes + Bytes.length value in
    respond tr env ~worker req ~cap:bytes ~bytes (Some value)
  | Request.Get, None -> ack tr env ~worker req
  | Request.Put, _ ->
    let value =
      match msg.Message.value with
      | Some v -> v
      | None -> invalid_arg "Exec.execute: put without payload"
    in
    access env "Exec.put" ~write:false
      ~addr:(tr.Transport.slot_addr req.Fwd.seq + 16)
      ~size:(Bytes.length value);
    (match (located, lock) with
    | Some item, Locked -> Item.write env item value slab
    | Some item, Exclusive -> Item.write_exclusive env item value slab
    | None, _ -> index.Index.insert env key (Item.create slab ~value));
    ack tr env ~worker req
  | Request.Delete, _ ->
    ignore (index.Index.remove env key);
    ack tr env ~worker req
  | Request.Scan, _ ->
    let bytes =
      scan_bytes env index ~key ~count:msg.Message.req.Request.scan_count
        ~skip ~prefix:req.Fwd.prefix
    in
    respond tr env ~worker req ~cap:32_768 ~bytes None
