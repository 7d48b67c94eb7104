module Env = Mutps_mem.Env
module Layout = Mutps_mem.Layout
module Item = Mutps_store.Item
module Rng = Mutps_sim.Rng

type mode = Sorted | Probed

let entry_bytes = 16

type t = {
  mode : mode;
  max_items : int;
  table_cap : int; (* probed mode: power-of-two slot count *)
  base : int;
  bytes : int;
  epoch_addr : int;
  keys : int64 array; (* sorted mode: sorted keys; probed: slots *)
  items : Item.t option array;
  mutable size : int;
  mutable epoch : int;
  mutable san_obj : int; (* sanitizer sync object; -1 until first use *)
}

let create layout ~mode ~max_items =
  if max_items <= 0 then invalid_arg "Hotcache.create";
  let table_cap = 1 lsl Mutps_sim.Bits.log2_ceil (2 * max_items) in
  let slots = match mode with Sorted -> max_items | Probed -> table_cap in
  let bytes = Layout.line_bytes + (slots * entry_bytes) in
  let region = Layout.region layout ~name:"hotcache" ~size:bytes in
  let epoch_addr = Layout.alloc region ~align:64 8 in
  ignore (Layout.alloc region ~align:64 (slots * entry_bytes));
  {
    mode;
    max_items;
    table_cap;
    base = Layout.base region;
    bytes;
    epoch_addr;
    keys = Array.make slots 0L;
    items = Array.make slots None;
    size = 0;
    epoch = 0;
    san_obj = -1;
  }

(* Sanitizer model: the epoch-switched hot set behaves like a
   reader-writer lock — lookups acquire/release the cache object around
   their probes, and the manager brackets its region rewrite + [publish]
   with the same object (via [sync_obj]).  The epoch word is a sync
   range. *)
let sync_obj t env =
  if t.san_obj < 0 && Env.sanitizing env then begin
    t.san_obj <- Env.sync_obj env ("hotcache@" ^ string_of_int t.base);
    Env.sync_range env ~lo:t.epoch_addr ~hi:(t.epoch_addr + 8) ~on:true
  end;
  t.san_obj

let mode t = t.mode
let size t = t.size
let epoch t = t.epoch
let region_base t = t.base
let region_bytes t = t.bytes

(* address of entry slot [i] *)
let slot_addr t i = t.base + Layout.line_bytes + (i * entry_bytes)

let probe_slot t key attempt =
  (Int64.to_int (Rng.hash64 key) + attempt) land (t.table_cap - 1)

let publish t entries =
  if Array.length entries > t.max_items then
    invalid_arg "Hotcache.publish: more entries than max_items";
  (match t.mode with
  | Sorted ->
    let sorted = Array.copy entries in
    Array.sort (fun (a, _) (b, _) -> Int64.compare a b) sorted;
    Array.fill t.items 0 (Array.length t.items) None;
    let n = ref 0 in
    Array.iter
      (fun (k, item) ->
        (* drop duplicates (sorted, so dups are adjacent) *)
        if !n = 0 || not (Int64.equal t.keys.(!n - 1) k) then begin
          t.keys.(!n) <- k;
          t.items.(!n) <- Some item;
          incr n
        end)
      sorted;
    t.size <- !n
  | Probed ->
    Array.fill t.items 0 (Array.length t.items) None;
    t.size <- 0;
    Array.iter
      (fun (k, item) ->
        let rec place attempt =
          if attempt >= t.table_cap then failwith "Hotcache: table full"
          else begin
            let s = probe_slot t k attempt in
            match t.items.(s) with
            | None ->
              t.keys.(s) <- k;
              t.items.(s) <- Some item;
              t.size <- t.size + 1
            | Some _ when Int64.equal t.keys.(s) k -> () (* duplicate *)
            | Some _ -> place (attempt + 1)
          end
        in
        place 0)
      entries);
  t.epoch <- t.epoch + 1

(* Charged search: the slot holding [key], or -1. *)
let slot_sorted t env key =
  let lo = ref 0 and hi = ref t.size in
  let found = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    Env.load env ~addr:(slot_addr t mid) ~size:entry_bytes;
    let c = Int64.compare t.keys.(mid) key in
    if c = 0 then begin
      found := mid;
      lo := !hi
    end
    else if c < 0 then lo := mid + 1
    else hi := mid
  done;
  !found

let slot_probed t env key =
  let rec go attempt =
    if attempt >= t.table_cap then -1
    else begin
      let s = probe_slot t key attempt in
      Env.load env ~addr:(slot_addr t s) ~size:entry_bytes;
      match t.items.(s) with
      | None -> -1
      | Some _ when Int64.equal t.keys.(s) key -> s
      | Some _ -> go (attempt + 1)
    end
  in
  go 0

(* The slot of [key] (or -1) under the cache's sync object: the epoch
   word, then the binary search (Sorted) or probe chain (Probed). *)
let slot t env key =
  let obj = sync_obj t env in
  Env.acquire env obj;
  Env.load env ~addr:t.epoch_addr ~size:8;
  let i =
    match t.mode with
    | Sorted -> slot_sorted t env key
    | Probed -> slot_probed t env key
  in
  Env.release env obj;
  i

let find t env key =
  Env.tagged env "Hotcache.find" @@ fun () ->
  if t.size = 0 then None
  else
    let i = slot t env key in
    if i < 0 then None else t.items.(i)

(* The slot is emptied, not removed: a Sorted cache keeps its key order,
   and a Probed chain cut here only turns later hits into misses, which
   the MR layer answers. *)
let invalidate t env key =
  Env.tagged env "Hotcache.invalidate" @@ fun () ->
  if t.size > 0 then begin
    let i = slot t env key in
    if i >= 0 then begin
      Env.store env ~addr:(slot_addr t i) ~size:entry_bytes;
      t.items.(i) <- None
    end
  end

let mem_silent t key =
  if t.size = 0 then false
  else
    match t.mode with
    | Sorted ->
      let lo = ref 0 and hi = ref t.size in
      let found = ref false in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        let c = Int64.compare t.keys.(mid) key in
        if c = 0 then begin
          found := Option.is_some t.items.(mid);
          lo := !hi
        end
        else if c < 0 then lo := mid + 1
        else hi := mid
      done;
      !found
    | Probed ->
      let rec go attempt =
        if attempt >= t.table_cap then false
        else begin
          let s = probe_slot t key attempt in
          match t.items.(s) with
          | None -> false
          | Some _ when Int64.equal t.keys.(s) key -> true
          | Some _ -> go (attempt + 1)
        end
      in
      go 0

let cached_range t env ~lo ~n =
  Env.tagged env "Hotcache.cached_range" @@ fun () ->
  match t.mode with
  | Probed -> invalid_arg "Hotcache.cached_range: requires Sorted mode"
  | Sorted ->
    let obj = sync_obj t env in
    Env.acquire env obj;
    Env.load env ~addr:t.epoch_addr ~size:8;
    (* binary search for the first key >= lo *)
    let a = ref 0 and b = ref t.size in
    while !a < !b do
      let mid = (!a + !b) / 2 in
      Env.load env ~addr:(slot_addr t mid) ~size:entry_bytes;
      if Int64.compare t.keys.(mid) lo < 0 then a := mid + 1 else b := mid
    done;
    let out = ref [] and taken = ref 0 and i = ref !a in
    while !taken < n && !i < t.size do
      Env.load env ~addr:(slot_addr t !i) ~size:entry_bytes;
      (match t.items.(!i) with
      | Some item ->
        out := (t.keys.(!i), item) :: !out;
        incr taken
      | None -> ());
      incr i
    done;
    Env.release env obj;
    List.rev !out
