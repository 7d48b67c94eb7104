(** The one per-operation executor.  Every thread model answers a request
    through {!execute} once its index lookup is done: the
    run-to-completion workers ({!Rtc}), the μTPS CR hot path and MR layer
    ({!Mutps}), and the native Split MR.  The thread models differ only in
    which thread runs which stage, and in where the response goes.  All
    memory traffic is charged through the worker's {!Mutps_mem.Env}. *)

(** [Locked] uses the seqlock protocol (share-everything); [Exclusive]
    skips it (share-nothing: the owning thread is the only writer). *)
type lock_mode = Locked | Exclusive

val ack_bytes : int
(** Fixed response-header size. *)

val post : Mutps_mem.Env.t -> Mutps_net.Transport.t -> Fwd.t -> unit
(** Answer an executed request on the wire from its completion fields. *)

val no_skip : int64 -> bool
(** [skip] for a thread with no hot cache: every item is read. *)

val locate :
  Mutps_mem.Env.t -> Mutps_index.Index_intf.t -> Mutps_net.Message.t ->
  Mutps_store.Item.t option
(** One request's item, for a thread that executes requests one at a time
    (the native Split MR): [None] for a miss, a delete or a scan. *)

val batch_lookup :
  Mutps_mem.Env.t -> Mutps_index.Index_intf.t -> n:int ->
  (int -> Mutps_net.Message.t) -> Mutps_store.Item.t option array
(** [batch_lookup env index ~n msg] locates the gets and puts among the
    batch [msg 0 .. msg (n-1)] with one batched, prefetch-overlapped index
    lookup (§3.3), then prefetches the located items for the copy stage.
    The result is positional: entry [i] is message [i]'s item, [None] for
    a miss, a delete or a scan. *)

val execute :
  Mutps_mem.Env.t -> Mutps_net.Transport.t -> Backend.t -> lock:lock_mode ->
  worker:int -> skip:(int64 -> bool) -> Fwd.t -> Mutps_store.Item.t option ->
  unit
(** [execute env tr backend ~lock ~worker ~skip req located] runs the
    request [req] (its rx slot, message and scan prefix) against its
    located item, writes the response into [worker]'s response buffer and
    records it in [req]'s completion fields.  A get copies the item out, a
    put reads its payload from the rx slot (it was DMAed there) and updates
    or creates the item, a delete removes the key, and a scan walks the
    index range.  Where the response goes is the caller's: {!post} answers
    at once (run-to-completion, the μTPS CR hot path); the MR layer leaves
    it for the CR thread to post after reaping (§3.4 tail-pointer
    piggyback).  Scan cooperation (§4): [req]'s prefix holds entries the
    CR layer already copied (counted, never re-read), and [skip] marks
    keys whose items need not be read again. *)
