(** Interprocedural domain-safety & lock-order analysis (the D rules).

    Certifies, over the shared closed world ({!World}), the contract that lets code cross OCaml 5 domains — today the parallel
    experiment runner, tomorrow the native backend (ROADMAP #2):

    - [D1] — every module-level mutable value must be a synchronization
      value (Atomic / Mutex / Condition / Semaphore / DLS key), frozen
      after module initialization, or mutex-guarded (every runtime
      access holds one common lock, tracked through sequences,
      [Mutex.protect] and closure definition points).  Mutable state in
      instance records is engine-local by construction and out of scope.
    - [D2] — mutable locals captured by closures handed to
      [Domain.spawn] (directly or via locally-bound worker functions,
      which are inlined) must be written only under a lock.
    - [D3] — static lock-order graph: edge [a -> b] when [b] is acquired
      (directly or transitively through calls) while [a] is held; cycles
      are potential deadlocks.  Exported as DOT.
    - [D4] — effect performs must be dominated by a handler in the same
      domain: performs (or calls reaching one) inside a [Domain.spawn]
      closure with no intervening handler installer
      ([match_with]/[try_with]/[continue_with]/[Simthread.spawn]) are
      reported.

    D1/D2/D4 findings are reported for library code (rule paths outside
    [bin/], [examples/]); the lock graph covers everything.
    Suppress with [[\@dom.allow "reason"]] (expression),
    [[\@\@dom.allow "reason"]] (binding) or [[\@\@\@dom.allow "reason"]]
    (rest of file); sites land in the world's suppression registry for
    stale reporting. *)

(** Static lock-order graph with first-witness edge labels. *)
module Lockgraph : sig
  type t

  val create : unit -> t
  val add_node : t -> string -> unit

  val add_edge : t -> src:string -> dst:string -> file:string -> line:int -> unit
  (** Records [src -> dst] ("dst acquired while src held"); the first
      witness site is kept as the edge label. *)

  val nodes : t -> string list
  (** Sorted. *)

  val edges : t -> (string * string * string * int) list
  (** [(src, dst, file, line)], sorted. *)

  val cycles : t -> string list list
  (** Strongly connected components with more than one node, plus
      self-loops; each cycle's nodes sorted, cycles sorted.  Empty means
      the acquisition order is consistent (deadlock-free). *)

  val to_dot : t -> string
end

type kind = Sync of string | Mut of string | Imm

type status =
  | S_sync of string  (** a synchronization value (Atomic, Mutex, DLS...) *)
  | S_frozen  (** no runtime writes: initialized, then read-only *)
  | S_locked of string  (** every runtime access holds this lock *)
  | S_flagged  (** has unprotected runtime accesses (D1 findings) *)

type global = {
  g_key : string;  (** "Module.binding" *)
  g_file : string;
  g_line : int;
  g_what : string;  (** "hash table", "ref cell", "Mutex", ... *)
  g_kind : kind;
  mutable g_status : status;
}

type result = {
  findings : World.finding list;  (** sorted, deduplicated *)
  globals : global list;  (** every module-level mutable/sync binding *)
  mutable_types : int;
      (** record types with mutable fields — instance-local state, out of
          D1 scope *)
  graph : Lockgraph.t;
}

val check_project : World.t -> result
(** Analyzes a world.  [[\@dom.allow]] sites are charged in the world's
    registry. *)
