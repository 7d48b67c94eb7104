(** Interprocedural zero-allocation certifier for the DES hot path
    (rule family A, complementing the determinism rules R1-R4 in {!Lint}).

    Functions annotated [let[@hot] f ...] are hot roots; everything
    reachable from them through the call graph is the {e hot set} and must
    not touch the OCaml heap:

    - {b A1} — heap allocation: closures, tuples, records, variant and
      polymorphic-variant payloads, array literals, [ref] cells, [lazy],
      first-class modules, allocating stdlib calls ([Array.make],
      [Printf.sprintf], [^], [@], ...), partial applications, and calls to
      qualified names the analysis can neither resolve nor prove safe.
    - {b A2} — boxing: float arithmetic, [Int64]/[Int32]/[Nativeint]
      operations, and polymorphic [compare]/[min]/[max]/[Hashtbl.hash]
      (which box or walk representations at runtime).
    - {b A3} — observability escapes: [Printf]/[Format]/[print_*]/[Buffer]
      calls, which both allocate and drag I/O machinery onto the hot path.

    Two structural exemptions keep the certification honest rather than
    suppression-riddled:

    - {e diverging calls}: argument subtrees of [invalid_arg], [failwith],
      [raise], [exit] are exempt — an error path that terminates the
      simulation may build its message.
    - {e trace guards}: the [Some]-branch of a match on [tr t] / [san t] /
      [Engine.tracer] / [Engine.sanitizer] is exempt and does not extend
      the hot set — the zero-cost-when-{e off} contract only constrains
      the [None] path.

    Anything else must be annotated
    [(e [@alloc.allow "reason"])] at the covering expression; the sites
    join the world's suppression registry, so stale ones surface.

    The analysis walks the Parsetree (same substrate as {!Lint}), so it is
    syntactic: calls through closures and record fields are trusted
    opaque, and unqualified unresolved names are assumed local and safe.
    The companion runtime test (test/sim, [Gc.minor_words] delta over an
    event churn) backstops the approximation. *)

type result = {
  findings : World.finding list;  (** rules "A1" | "A2" | "A3", sorted *)
  hot_roots : string list;  (** keys of [\[@hot\]]-annotated bindings *)
  hot_set : string list;  (** every function certified (roots + reachable) *)
}

val check_project : World.t -> result
(** Certifies the hot set of a world.  [[\@alloc.allow]] sites are
    charged in the world's registry. *)
