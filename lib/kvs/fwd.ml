(** A request in execution: the compact request plus the completion fields
    {!Exec.execute} fills in.  It is the unit of CR→MR forwarding, and
    responses travel back by tail-pointer piggyback (§3.4): the MR thread
    never posts to the NIC, it records where in its response buffer it put
    the data and the CR thread posts the send after reaping the completed
    batch.  Run-to-completion workers and the CR hot path post at once. *)

type t = {
  seq : int;  (** rx slot sequence (the 32-bit [buf] field) *)
  cr : int;  (** owning CR worker (response buffer owner) *)
  msg : Mutps_net.Message.t;
  prefix : (int64 * Mutps_store.Item.t) list;
      (** scan cooperation: entries the CR layer already copied *)
  mutable resp_addr : int;
  mutable resp_bytes : int;
  mutable resp_value : bytes option;
}

let make ~seq ~cr ~msg ~prefix =
  { seq; cr; msg; prefix; resp_addr = 0; resp_bytes = 0; resp_value = None }

(* 16 bytes on the CR-MR ring for point ops, 32 for scans (§4) *)
let ring_bytes = 16
