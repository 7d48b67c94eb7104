(** The R family: determinism & charge discipline for the simulation
    sources.

    Each rule is individually suppressible with [[\@lint.allow "R<n>"]]
    (expression), [[\@\@lint.allow "R<n>"]] (binding) or
    [[\@\@\@lint.allow "R<n>"]] (rest of file):

    - [R1] — no wall clock, no ambient randomness, no unordered hash-table
      traversal whose order can leak into simulated state.
    - [R2] — outside [lib/mem], memory traffic must be charged through
      [Env]: direct [Hierarchy.load]/[store]/[prefetch_batch] is
      forbidden, and so is a call from [lib/] into a function that
      reaches such traffic without passing through [lib/mem].
    - [R3] — a read of a registered shared-mutable field (seqlock
      versions, ring cursors, forwarding completion fields) that is not
      commit-dominated in its function is reported when the function is
      {e exposed}: an entry point, a closure that escapes, or reached
      through a call site that is not commit-dominated (least fixpoint
      over the call graph).
    - [R4] — [Simthread] effects only from simulated-thread contexts; no
      [Obj.magic]; no physical equality. *)

val check_project : World.t -> World.finding list
(** The R findings of a world, sorted: the intra pass (R1, R4, direct
    R2) over every source plus the interprocedural pass (R3, indirect
    R2) over its call graph.  Suppressions are charged to the world's
    registry. *)

val check_file : ?rule_path:string -> string -> (World.finding list, string) result
(** Lint one [.ml] file as a one-file world.  [rule_path] overrides the
    path used for directory-scoped rules (e.g. the [lib/mem] R2
    exemption), for fixtures standing in for sources elsewhere in the
    tree.  [Error] is a parse/IO failure, not a finding. *)

val check_string :
  ?file:string -> ?rule_path:string -> string -> (World.finding list, string) result
(** Same, over source text. *)
