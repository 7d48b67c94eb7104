(** The resizable hot-item cache of the cache-resident layer (§3.2.2).

    Two organisations, per the paper: with a tree index the hot set is kept
    as a {e sorted array} (no intermediate pointers, binary search, cheap to
    rebuild on refresh, supports range cooperation); with a hash index hot
    items are reachable in O(1) via open-addressing probing — standing in
    for "reuse the main index", whose hot buckets are cache-resident.

    [publish] installs a new hot set with an epoch-style atomic switch; the
    arrays live in their own region so the auto-tuner can pin them into
    dedicated LLC ways. *)

type mode = Sorted | Probed

type t

val create : Mutps_mem.Layout.t -> mode:mode -> max_items:int -> t

val mode : t -> mode
val size : t -> int
val epoch : t -> int
(** Incremented by every {!publish}. *)

val region_base : t -> int
val region_bytes : t -> int

val sync_obj : t -> Mutps_mem.Env.t -> int
(** Sanitizer sync object of this cache ([-1] when no sanitizer).  The
    manager brackets its region rewrite + {!publish} with
    {!Mutps_mem.Env.acquire}/{!Mutps_mem.Env.release} on it; lookups
    acquire/release it internally. *)

val publish : t -> (int64 * Mutps_store.Item.t) array -> unit
(** Install a new hot set (silent: the manager thread charges its own
    rebuild costs).  Duplicate keys keep the first occurrence.  Raises
    [Invalid_argument] beyond [max_items]. *)

val find : t -> Mutps_mem.Env.t -> int64 -> Mutps_store.Item.t option
(** Charged lookup: epoch word + binary search (Sorted) or probe chain
    (Probed). *)

val invalidate : t -> Mutps_mem.Env.t -> int64 -> unit
(** Charged removal of [key]'s entry, for a delete reaching the CR layer:
    later lookups miss until the next {!publish}. *)

val mem_silent : t -> int64 -> bool

val cached_range :
  t -> Mutps_mem.Env.t -> lo:int64 -> n:int -> (int64 * Mutps_store.Item.t) list
(** Cached entries with key ≥ [lo], ascending, at most [n] — the CR side of
    cooperative range queries (§4).  Sorted mode only. *)
