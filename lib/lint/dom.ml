(* Interprocedural domain-safety & lock-order analysis (the D rules).

   The simulated-time core is single-domain by construction, but two
   things already cross real domains: the parallel experiment runner
   (lib/experiments/runner.ml, [Domain.spawn] per job) and the ambient
   engine factories it inherits (DLS).  The future native backend
   (ROADMAP #2) will cross domains everywhere.  This pass certifies, over
   the shared closed world ({!World}), the contract that makes that
   safe:

   D1  every module-level mutable value (ref, Hashtbl, Buffer, array,
       record with mutable fields, ...) must be one of
         - a synchronization value itself (Atomic / Mutex / Condition /
           Semaphore / Domain.DLS key),
         - frozen: no runtime writes — writes only at module
           initialization (depth-zero code of immediate top-level
           bindings, which happens-before any spawn),
         - mutex-guarded: every runtime access holds one common lock
           (lock state is tracked through sequences, [Mutex.protect],
           and closures, which inherit the locks held at their
           definition point);
       anything else is an unprotected cross-domain access.  Mutable
       state reachable only through instance records (engine fields,
       store handles, ...) is engine-local by construction and out of
       scope; the pass counts those record types for visibility.
   D2  mutable locals captured by a closure handed to [Domain.spawn]
       (directly, or through a locally-bound worker function, which is
       inlined) must be written only under a lock.  Writes outside the
       spawn region are assumed to happen before the spawn or after the
       join — the runner's fill-then-join idiom.
   D3  a static lock-order graph: an edge [a -> b] is recorded when [b]
       is acquired while [a] is held, directly or via a call to a
       function that transitively acquires [b].  Cycles (including
       self-edges: re-acquiring a held, non-reentrant [Mutex.t]) are
       potential deadlocks.  The graph exports as DOT.
   D4  effect performs must be dominated by their handler in the same
       domain: a [perform] — or a call reaching one with no intervening
       handler — inside a [Domain.spawn] closure is an error, because
       the handler installed by [Simthread.spawn]'s [match_with] never
       crosses a domain boundary.  Arguments of handler-installing calls
       ([match_with]/[try_with]/[continue_with]/[Simthread.spawn]) are
       handled regions; performer-ness propagates through ordinary calls.

   Findings are reported for library code (rule paths outside bin/,
   bench/ and examples/ — single-domain drivers); the lock graph is
   built over everything.  Any finding can be suppressed with
   [[@dom.allow "reason"]] at the expression, [[@@dom.allow "reason"]]
   at the binding, or [[@@@dom.allow "reason"]] for the rest of the
   file; sites join the world's suppression registry so stale
   suppressions are reported alongside the lint and alloc families.

   Approximations (all in the conservative direction or documented):
   record mutability is judged by field name over every type declared in
   the world; calls through closures, fields and functors are opaque;
   [Mutex.try_lock] counts as an acquire (its failure branch is treated
   as if locked); DLS-inherited factory closures are not spawn-seeded
   (the two in-tree instances are mutex-guarded and D1-checked). *)

module SS = Set.Make (String)
open World

(* ------------------------------------------------------------------ *)
(* Lock-order graph                                                    *)
(* ------------------------------------------------------------------ *)

module Lockgraph = struct
  type t = {
    mutable node_order : string list;  (** reverse insertion order *)
    node_set : (string, unit) Hashtbl.t;
    edge_tbl : (string * string, string * int) Hashtbl.t;
        (** (src, dst) -> first witness (file, line) *)
  }

  let create () =
    { node_order = []; node_set = Hashtbl.create 16; edge_tbl = Hashtbl.create 16 }

  let add_node t n =
    if not (Hashtbl.mem t.node_set n) then begin
      Hashtbl.replace t.node_set n ();
      t.node_order <- n :: t.node_order
    end

  let add_edge t ~src ~dst ~file ~line =
    add_node t src;
    add_node t dst;
    if not (Hashtbl.mem t.edge_tbl (src, dst)) then
      Hashtbl.replace t.edge_tbl (src, dst) (file, line)

  let nodes t = List.sort compare (List.rev t.node_order)

  let edges t =
    Hashtbl.to_seq t.edge_tbl
    |> Seq.map (fun ((src, dst), (file, line)) -> (src, dst, file, line))
    |> List.of_seq |> List.sort compare

  (* Tarjan SCC; a cycle is an SCC with more than one node, or a single
     node with a self-edge. *)
  let cycles t =
    let ns = nodes t in
    let succ = Hashtbl.create 16 in
    List.iter
      (fun (s, d, _, _) ->
        Hashtbl.replace succ s
          (d :: (Option.value (Hashtbl.find_opt succ s) ~default:[])))
      (edges t);
    let index = Hashtbl.create 16 and low = Hashtbl.create 16 in
    let on_stack = Hashtbl.create 16 in
    let stack = ref [] and counter = ref 0 and sccs = ref [] in
    let rec strong v =
      Hashtbl.replace index v !counter;
      Hashtbl.replace low v !counter;
      incr counter;
      stack := v :: !stack;
      Hashtbl.replace on_stack v ();
      List.iter
        (fun w ->
          if not (Hashtbl.mem index w) then begin
            strong w;
            Hashtbl.replace low v
              (min (Hashtbl.find low v) (Hashtbl.find low w))
          end
          else if Hashtbl.mem on_stack w then
            Hashtbl.replace low v
              (min (Hashtbl.find low v) (Hashtbl.find index w)))
        (Option.value (Hashtbl.find_opt succ v) ~default:[]);
      if Hashtbl.find low v = Hashtbl.find index v then begin
        let rec pop acc =
          match !stack with
          | w :: tl ->
            stack := tl;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
          | [] -> acc
        in
        sccs := pop [] :: !sccs
      end
    in
    List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) ns;
    List.filter
      (fun scc ->
        match scc with
        | [ v ] -> Hashtbl.mem t.edge_tbl (v, v)
        | _ :: _ :: _ -> true
        | [] -> false)
      !sccs
    |> List.map (List.sort compare)
    |> List.sort compare

  let to_dot t =
    let b = Buffer.create 256 in
    Buffer.add_string b "digraph lock_order {\n";
    Buffer.add_string b "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
    List.iter
      (fun n -> Buffer.add_string b (Printf.sprintf "  %S;\n" n))
      (nodes t);
    List.iter
      (fun (s, d, file, line) ->
        Buffer.add_string b
          (Printf.sprintf "  %S -> %S [label=\"%s:%d\", fontsize=8];\n" s d
             file line))
      (edges t);
    Buffer.add_string b "}\n";
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Rule tables                                                         *)
(* ------------------------------------------------------------------ *)

(* Constructors whose result is a synchronization value: safe to share
   by design. *)
let sync_ctors =
  [
    ("Atomic.make", "Atomic");
    ("Mutex.create", "Mutex");
    ("Condition.create", "Condition");
    ("Semaphore.Counting.make", "Semaphore");
    ("Semaphore.Binary.make", "Semaphore");
    ("Domain.DLS.new_key", "DLS key");
  ]

(* Constructors whose result is shared-mutable when bound at the module
   top level. *)
let mut_ctors =
  [
    ("ref", "ref cell");
    ("Hashtbl.create", "hash table");
    ("Queue.create", "queue");
    ("Stack.create", "stack");
    ("Buffer.create", "buffer");
    ("Bytes.create", "byte buffer");
    ("Bytes.make", "byte buffer");
    ("Bytes.of_string", "byte buffer");
    ("Array.make", "array");
    ("Array.init", "array");
    ("Array.create_float", "array");
    ("Array.of_list", "array");
    ("Array.copy", "array");
    ("Array.append", "array");
    ("Array.concat", "array");
    ("Array.sub", "array");
    ("Weak.create", "weak array");
  ]

(* Known mutators: positional (Nolabel) argument indices that are written
   through.  A bare identifier in such a position is a write mention of
   that identifier; everything else is a read. *)
let mutators =
  [
    (":=", [ 0 ]); ("incr", [ 0 ]); ("decr", [ 0 ]);
    ("Hashtbl.replace", [ 0 ]); ("Hashtbl.add", [ 0 ]);
    ("Hashtbl.remove", [ 0 ]); ("Hashtbl.reset", [ 0 ]);
    ("Hashtbl.clear", [ 0 ]); ("Hashtbl.filter_map_inplace", [ 1 ]);
    ("Array.set", [ 0 ]); ("Array.unsafe_set", [ 0 ]);
    ("Array.fill", [ 0 ]); ("Array.blit", [ 2 ]);
    ("Array.sort", [ 1 ]); ("Array.fast_sort", [ 1 ]);
    ("Bytes.set", [ 0 ]); ("Bytes.unsafe_set", [ 0 ]);
    ("Bytes.fill", [ 0 ]); ("Bytes.blit", [ 2 ]);
    ("Bytes.blit_string", [ 2 ]);
    ("Buffer.add_char", [ 0 ]); ("Buffer.add_string", [ 0 ]);
    ("Buffer.add_bytes", [ 0 ]); ("Buffer.add_substring", [ 0 ]);
    ("Buffer.add_subbytes", [ 0 ]); ("Buffer.add_buffer", [ 0 ]);
    ("Buffer.clear", [ 0 ]); ("Buffer.reset", [ 0 ]);
    ("Buffer.truncate", [ 0 ]);
    ("Queue.push", [ 1 ]); ("Queue.add", [ 1 ]); ("Queue.pop", [ 0 ]);
    ("Queue.take", [ 0 ]); ("Queue.clear", [ 0 ]);
    ("Queue.transfer", [ 0; 1 ]);
    ("Stack.push", [ 1 ]); ("Stack.pop", [ 0 ]); ("Stack.clear", [ 0 ]);
  ]

(* Calls whose function arguments run under an installed effect handler.
   [Simthread.spawn] wraps its callback in [match_with] internally. *)
let handler_installers =
  [ "match_with"; "try_with"; "continue_with"; "Simthread.spawn" ]

let is_perform p = matches "perform" p || matches "Effect.perform" p

(* ------------------------------------------------------------------ *)
(* World facts: mutable record fields, globals                         *)
(* ------------------------------------------------------------------ *)

let in_reported_dir rule_path =
  not (List.exists (fun d -> in_dir d rule_path) [ "bin"; "bench"; "examples" ])

(* Every record type in the world contributes its mutable field names;
   a type with at least one mutable field counts as instance-local
   mutable state (out of D1 scope, reported for visibility). *)
let collect_type_facts sources =
  let mutable_fields = ref SS.empty in
  let mutable_types = ref 0 in
  let type_declaration _ (td : Parsetree.type_declaration) =
    match td.ptype_kind with
    | Ptype_record labels ->
      let muts =
        List.filter
          (fun (l : Parsetree.label_declaration) ->
            l.pld_mutable = Asttypes.Mutable)
          labels
      in
      if muts <> [] then begin
        incr mutable_types;
        List.iter
          (fun (l : Parsetree.label_declaration) ->
            mutable_fields := SS.add l.pld_name.txt !mutable_fields)
          muts
      end
    | _ -> ()
  in
  let it = { Ast_iterator.default_iterator with type_declaration } in
  List.iter (fun (_, _, str) -> it.structure it str) sources;
  (!mutable_fields, !mutable_types)

type kind = Sync of string | Mut of string | Imm

(* Shape of a top-level right-hand side.  Recurses through containers
   (tuples, constructors, immutable records, let/sequence tails, if
   branches) so [Some (ref 0)] or [{ slot = Hashtbl.create 4 }] is still
   mutable; function-call results are opaque and classify immutable. *)
let rec classify_rhs ~mutable_fields (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) ->
    classify_rhs ~mutable_fields e
  | Pexp_lazy _ -> Mut "lazy thunk"
  | Pexp_array (_ :: _) -> Mut "array literal"
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    let p = strip_stdlib (path_of_lid txt) in
    match List.assoc_opt p sync_ctors with
    | Some k -> Sync k
    | None -> (
      match List.assoc_opt p mut_ctors with
      | Some w -> Mut w
      | None -> Imm))
  | Pexp_record (fields, _) ->
    if
      List.exists
        (fun (({ txt; _ } : Longident.t Location.loc), _) ->
          match Longident.last txt with
          | name -> SS.mem name mutable_fields
          | exception _ -> false)
        fields
    then Mut "record with mutable fields"
    else if
      List.exists
        (fun (_, v) -> classify_rhs ~mutable_fields v <> Imm)
        fields
    then Mut "record holding mutable state"
    else Imm
  | Pexp_tuple es ->
    if List.exists (fun e -> classify_rhs ~mutable_fields e <> Imm) es then
      Mut "tuple holding mutable state"
    else Imm
  | Pexp_construct (_, Some arg) -> (
    match classify_rhs ~mutable_fields arg with
    | Imm -> Imm
    | Sync k -> Sync k
    | Mut w -> Mut w)
  | Pexp_let (_, _, body) | Pexp_sequence (_, body) ->
    classify_rhs ~mutable_fields body
  | Pexp_ifthenelse (_, t, Some e) -> (
    match classify_rhs ~mutable_fields t with
    | Imm -> classify_rhs ~mutable_fields e
    | k -> k)
  | _ -> Imm

type status =
  | S_sync of string  (** a synchronization value (Atomic, Mutex, DLS, ...) *)
  | S_frozen  (** no runtime writes: initialized, then read-only *)
  | S_locked of string  (** every runtime access holds this lock *)
  | S_flagged  (** has unprotected runtime accesses (D1 findings) *)

type global = {
  g_key : string;  (** "Module.binding" *)
  g_file : string;
  g_line : int;
  g_what : string;  (** "hash table", "Mutex", ... *)
  g_kind : kind;
  mutable g_status : status;
}

(* ------------------------------------------------------------------ *)
(* Per-binding extraction                                              *)
(* ------------------------------------------------------------------ *)

type mention = {
  m_global : string;  (** key of the global touched *)
  m_fn : string;  (** enclosing binding *)
  m_file : string;
  m_rule : string;
  m_loc : Location.t;
  m_write : bool;
  m_held : SS.t;
  m_init : bool;  (** depth-zero code of an immediate binding *)
  m_allow : allow_site option;
}

type cap = {
  c_name : string;  (** local variable captured by a spawn closure *)
  c_what : string;
  c_fn : string;
  c_file : string;
  c_rule : string;
  c_loc : Location.t;
  c_write : bool;
  c_held : SS.t;
  c_allow : allow_site option;
}

type dcall = {
  dc_path : string;
  dc_fn : string;
  dc_file : string;
  dc_rule : string;
  dc_loc : Location.t;
  dc_held : SS.t;
  dc_spawn : bool;
  dc_handled : bool;
  dc_allow : allow_site option;
}

type acq = {
  aq_lock : string;
  aq_fn : string;
  aq_file : string;
  aq_loc : Location.t;
  aq_held : SS.t;
}

type pf = {
  pf_fn : string;
  pf_file : string;
  pf_rule : string;
  pf_loc : Location.t;
  pf_spawn : bool;
  pf_handled : bool;
  pf_allow : allow_site option;
}

type facts = {
  mutable mentions : mention list;
  mutable caps : cap list;
  mutable dcalls : dcall list;
  mutable acqs : acq list;
  mutable performs : pf list;
}

type wctx = {
  held : SS.t;
  spawn : bool;
  handled : bool;
  depth : int;
  allow : allow_site option;
}

let dom_allow_of_attrs registry ~file (attrs : Parsetree.attributes) =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt = "dom.allow" then Some (register registry ~file a)
      else None)
    attrs

(* Walk one top-level binding's body.  [immediate] marks a binding whose
   RHS is not a function: its depth-zero code runs at module
   initialization, which happens-before any spawn. *)
let walk_binding ~facts ~gidx ~mutable_fields ~registry ~fn_key ~file
    ~rule_path ~immediate ~allow0 (rhs : Parsetree.expression) =
  let spawn_visited = ref SS.empty in
  let local_muts : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let local_lams : (string, Parsetree.expression) Hashtbl.t =
    Hashtbl.create 8
  in
  let resolve_global p = resolve gidx ~file p in
  (* Identity of a lock expression: a resolvable global mutex keeps its
     key; a local name is scoped to the enclosing binding; a record
     field keeps its field name (all instances of a per-instance lock
     share one node — instance locks have one acquisition discipline);
     anything else is anonymous per site. *)
  let lock_id (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
      let p = strip_stdlib (path_of_lid txt) in
      match resolve_global p with
      | Some g -> g.g_key
      | None ->
        if String.contains p '.' then p else fn_key ^ "/" ^ p)
    | Pexp_field (_, { txt; _ }) -> (
      match Longident.last txt with
      | f -> "<." ^ f ^ ">"
      | exception _ -> "<.lock>")
    | _ ->
      Printf.sprintf "<anon:%s:%d>" file
        e.pexp_loc.Location.loc_start.pos_lnum
  in
  let mention ctx ~(loc : Location.t) ~write p =
    let p = strip_stdlib p in
    match resolve_global p with
    | Some g when (match g.g_kind with Mut _ -> true | _ -> false) ->
      facts.mentions <-
        {
          m_global = g.g_key;
          m_fn = fn_key;
          m_file = file;
          m_rule = rule_path;
          m_loc = loc;
          m_write = write;
          m_held = ctx.held;
          m_init = immediate && ctx.depth = 0 && not ctx.spawn;
          m_allow = ctx.allow;
        }
        :: facts.mentions
    | _ -> (
      if not (String.contains p '.') then
        match Hashtbl.find_opt local_muts p with
        | Some what when ctx.spawn ->
          facts.caps <-
            {
              c_name = p;
              c_what = what;
              c_fn = fn_key;
              c_file = file;
              c_rule = rule_path;
              c_loc = loc;
              c_write = write;
              c_held = ctx.held;
              c_allow = ctx.allow;
            }
            :: facts.caps
        | _ -> ())
  in
  let rec walk ctx (e : Parsetree.expression) : SS.t =
    match dom_allow_of_attrs registry ~file e.pexp_attributes with
    | Some site -> walk_desc { ctx with allow = Some site } e
    | None -> walk_desc ctx e
  and walk_desc ctx (e : Parsetree.expression) : SS.t =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
      mention ctx ~loc ~write:false (path_of_lid txt);
      ctx.held
    | Pexp_fun (_, default, _, body) ->
      Option.iter (fun d -> ignore (walk ctx d)) default;
      ignore (walk { ctx with depth = ctx.depth + 1 } body);
      ctx.held
    | Pexp_function cases ->
      List.iter
        (fun (c : Parsetree.case) ->
          Option.iter
            (fun g -> ignore (walk { ctx with depth = ctx.depth + 1 } g))
            c.pc_guard;
          ignore (walk { ctx with depth = ctx.depth + 1 } c.pc_rhs))
        cases;
      ctx.held
    | Pexp_apply (f, args) -> (
      match call_shape f args with
      | `Call (p, loc, args) -> walk_app ctx loc p args
      | `Opaque (f, args) ->
        ignore (walk ctx f);
        List.iter (fun (_, a) -> ignore (walk ctx a)) args;
        ctx.held)
    | Pexp_let (_, vbs, body) ->
      let held =
        List.fold_left
          (fun held (vb : Parsetree.value_binding) ->
            (match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt = name; _ }
            | Ppat_constraint ({ ppat_desc = Ppat_var { txt = name; _ }; _ }, _)
              -> (
              match vb.pvb_expr.pexp_desc with
              | Pexp_fun _ | Pexp_function _ ->
                Hashtbl.replace local_lams name vb.pvb_expr
              | _ -> (
                match classify_rhs ~mutable_fields vb.pvb_expr with
                | Mut what -> Hashtbl.replace local_muts name what
                | _ -> ()))
            | _ -> ());
            walk { ctx with held } vb.pvb_expr)
          ctx.held vbs
      in
      walk { ctx with held } body
    | Pexp_sequence (a, b) ->
      let held = walk ctx a in
      walk { ctx with held } b
    | Pexp_setfield (lhs, _, rhs) ->
      (match lhs.pexp_desc with
      | Pexp_ident { txt; loc } ->
        mention ctx ~loc ~write:true (path_of_lid txt)
      | _ -> ignore (walk ctx lhs));
      ignore (walk ctx rhs);
      ctx.held
    | Pexp_ifthenelse (c, t, eo) ->
      let held = walk ctx c in
      ignore (walk { ctx with held } t);
      Option.iter (fun e -> ignore (walk { ctx with held } e)) eo;
      held
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      let held = walk ctx scrut in
      List.iter
        (fun (c : Parsetree.case) ->
          Option.iter (fun g -> ignore (walk { ctx with held } g)) c.pc_guard;
          ignore (walk { ctx with held } c.pc_rhs))
        cases;
      held
    | Pexp_constraint (e, _) | Pexp_newtype (_, e) | Pexp_open (_, e) ->
      walk ctx e
    | _ ->
      let it =
        {
          Ast_iterator.default_iterator with
          expr = (fun _ e -> ignore (walk ctx e));
        }
      in
      Ast_iterator.default_iterator.expr it e;
      ctx.held
  and walk_app ctx (loc : Location.t) p args : SS.t =
    let nolabel =
      List.filter_map
        (fun ((l, a) : Asttypes.arg_label * Parsetree.expression) ->
          if l = Asttypes.Nolabel then Some a else None)
        args
    in
    if matches "Mutex.lock" p || matches "Mutex.try_lock" p then (
      match nolabel with
      | [ l ] ->
        let lid = lock_id l in
        facts.acqs <-
          { aq_lock = lid; aq_fn = fn_key; aq_file = file; aq_loc = loc;
            aq_held = ctx.held }
          :: facts.acqs;
        SS.add lid ctx.held
      | _ -> ctx.held)
    else if matches "Mutex.unlock" p then (
      match nolabel with
      | [ l ] -> SS.remove (lock_id l) ctx.held
      | _ -> ctx.held)
    else if matches "Mutex.protect" p then (
      match nolabel with
      | l :: rest ->
        let lid = lock_id l in
        facts.acqs <-
          { aq_lock = lid; aq_fn = fn_key; aq_file = file; aq_loc = loc;
            aq_held = ctx.held }
          :: facts.acqs;
        let inner = { ctx with held = SS.add lid ctx.held } in
        List.iter (fun a -> ignore (walk inner a)) rest;
        ctx.held
      | [] -> ctx.held)
    else if matches "Domain.spawn" p then begin
      (match nolabel with
      | closure :: _ -> spawn_walk ctx loc closure
      | [] -> ());
      ctx.held
    end
    else if matches_any handler_installers p then begin
      record_call ctx loc p;
      List.iter
        (fun (_, a) -> ignore (walk { ctx with handled = true } a))
        args;
      ctx.held
    end
    else if is_perform p then begin
      facts.performs <-
        {
          pf_fn = fn_key;
          pf_file = file;
          pf_rule = rule_path;
          pf_loc = loc;
          pf_spawn = ctx.spawn;
          pf_handled = ctx.handled;
          pf_allow = ctx.allow;
        }
        :: facts.performs;
      List.iter (fun (_, a) -> ignore (walk ctx a)) args;
      ctx.held
    end
    else begin
      (* argument traversal, with write positions of known mutators *)
      let write_idx =
        Option.value (List.assoc_opt p mutators) ~default:[]
      in
      let pos = ref (-1) in
      List.iter
        (fun ((l, a) : Asttypes.arg_label * Parsetree.expression) ->
          let is_write_pos =
            l = Asttypes.Nolabel
            && begin
                 incr pos;
                 List.mem !pos write_idx
               end
          in
          match a.pexp_desc with
          | Pexp_ident { txt; loc = iloc } when is_write_pos ->
            mention ctx ~loc:iloc ~write:true (path_of_lid txt)
          | _ -> ignore (walk ctx a))
        args;
      (* the call itself *)
      (if (not (String.contains p '.')) && Hashtbl.mem local_lams p then begin
         (* local worker function: in a spawn region its body runs on the
            spawned domain — inline it (once per spawn region) *)
         if ctx.spawn && not (SS.mem p !spawn_visited) then begin
           spawn_visited := SS.add p !spawn_visited;
           inline_lam ctx (Hashtbl.find local_lams p)
         end
       end
       else record_call ctx loc p);
      ctx.held
    end
  and record_call ctx loc p =
    facts.dcalls <-
      {
        dc_path = p;
        dc_fn = fn_key;
        dc_file = file;
        dc_rule = rule_path;
        dc_loc = loc;
        dc_held = ctx.held;
        dc_spawn = ctx.spawn;
        dc_handled = ctx.handled;
        dc_allow = ctx.allow;
      }
      :: facts.dcalls
  and inline_lam ctx (lam : Parsetree.expression) =
    ignore (walk ctx (strip_params ~default:(fun d -> ignore (walk ctx d)) lam))
  and spawn_walk ctx loc (closure : Parsetree.expression) =
    let inner =
      { ctx with spawn = true; handled = false; depth = ctx.depth + 1 }
    in
    match closure.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> inline_lam inner closure
    | Pexp_ident { txt; _ } -> (
      let p = strip_stdlib (path_of_lid txt) in
      if (not (String.contains p '.')) && Hashtbl.mem local_lams p then begin
        if not (SS.mem p !spawn_visited) then begin
          spawn_visited := SS.add p !spawn_visited;
          inline_lam inner (Hashtbl.find local_lams p)
        end
      end
      else record_call inner loc p)
    | _ -> ignore (walk inner closure)
  in
  inline_lam
    { held = SS.empty; spawn = false; handled = false; depth = 0; allow = allow0 }
    rhs

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)
(* ------------------------------------------------------------------ *)

type result = {
  findings : finding list;
  globals : global list;  (** every module-level mutable/sync binding *)
  mutable_types : int;  (** record types with mutable fields (instance-local) *)
  graph : Lockgraph.t;
}

let rec is_function_rhs (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> is_function_rhs e
  | _ -> false

let check_project (w : World.t) =
  let registry = w.registry in
  let mutable_fields, mutable_types = collect_type_facts w.sources in
  (* every [@@@dom.allow] is a site, whether or not a binding follows *)
  List.iter
    (fun (file, (a : Parsetree.attribute)) ->
      if a.attr_name.txt = "dom.allow" then ignore (register registry ~file a))
    w.floating;
  (* pass 1: classify module-level bindings *)
  let globals =
    List.filter_map
      (fun (b : binding) ->
        let global what kind status =
          Some
            {
              g_key = b.b_key;
              g_file = b.b_file;
              g_line = b.b_vb.pvb_loc.loc_start.pos_lnum;
              g_what = what;
              g_kind = kind;
              g_status = status;
            }
        in
        match classify_rhs ~mutable_fields b.b_vb.pvb_expr with
        | Imm -> None
        | Sync k -> global k (Sync k) (S_sync k)
        | Mut what -> global what (Mut what) S_frozen)
      w.bindings
    |> List.rev
    |> List.sort (fun a b -> compare (a.g_file, a.g_line) (b.g_file, b.g_line))
  in
  let gidx = index ~key:(fun g -> g.g_key) ~file:(fun g -> g.g_file) globals in
  (* pass 2: walk every binding body *)
  let facts = { mentions = []; caps = []; dcalls = []; acqs = []; performs = [] } in
  List.iter
    (fun (b : binding) ->
      let allow0 =
        match dom_allow_of_attrs registry ~file:b.b_file b.b_vb.pvb_attributes with
        | Some s -> Some s
        | None -> dom_allow_of_attrs registry ~file:b.b_file b.b_floating
      in
      walk_binding ~facts ~gidx ~mutable_fields ~registry ~fn_key:b.b_key
        ~file:b.b_file ~rule_path:b.b_rule
        ~immediate:(not (is_function_rhs b.b_vb.pvb_expr))
        ~allow0 b.b_vb.pvb_expr)
    w.bindings;
  let resolve_fn ~file p =
    Option.map (fun (g : binding) -> g.b_key) (resolve w.fns ~file p)
  in
  let findings = ref [] in
  let report ?allow rule ~file ~loc msg =
    World.report findings ?allow ~rule ~file loc msg
  in
  let mentions = List.rev facts.mentions in
  (* D1: judge every module-level mutable binding *)
  List.iter
    (fun g ->
      match g.g_kind with
      | Sync _ | Imm -> ()
      | Mut what ->
        let ms = List.filter (fun m -> m.m_global = g.g_key) mentions in
        let runtime = List.filter (fun m -> not m.m_init) ms in
        let writes = List.filter (fun m -> m.m_write) runtime in
        if writes = [] then g.g_status <- S_frozen
        else begin
          let common =
            match runtime with
            | [] -> SS.empty
            | m :: tl ->
              List.fold_left (fun acc m -> SS.inter acc m.m_held) m.m_held tl
          in
          if not (SS.is_empty common) then
            g.g_status <- S_locked (SS.min_elt common)
          else begin
            g.g_status <- S_flagged;
            let unheld =
              List.filter (fun m -> SS.is_empty m.m_held) runtime
            in
            let offenders = if unheld <> [] then unheld else runtime in
            let inconsistent = unheld = [] in
            List.iter
              (fun m ->
                if in_reported_dir m.m_rule then
                  report ?allow:m.m_allow "D1" ~file:m.m_file ~loc:m.m_loc
                    (Printf.sprintf
                       "%s of module-level mutable %s (%s) in %s %s; every \
                        cross-domain access must hold one common mutex, or \
                        the state must become Atomic, Domain.DLS or an \
                        engine-instance field"
                       (if m.m_write then "write" else "read")
                       g.g_key what m.m_fn
                       (if inconsistent then
                          "holds no lock common to all accesses"
                        else "holds no lock")))
              offenders
          end
        end)
    globals;
  (* D2: mutable locals captured by Domain.spawn closures *)
  let caps = List.rev facts.caps in
  let cap_groups = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let k = (c.c_fn, c.c_name) in
      Hashtbl.replace cap_groups k
        (c :: Option.value (Hashtbl.find_opt cap_groups k) ~default:[]))
    caps;
  Hashtbl.to_seq cap_groups |> List.of_seq
  |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
  |> List.iter (fun ((_fn, name), group) ->
      let group = List.rev group in
      let unprotected_writes =
        List.filter (fun c -> c.c_write && SS.is_empty c.c_held) group
      in
      if unprotected_writes <> [] then
        List.iter
          (fun c ->
            if SS.is_empty c.c_held && in_reported_dir c.c_rule then
              report ?allow:c.c_allow "D2" ~file:c.c_file ~loc:c.c_loc
                (Printf.sprintf
                   "mutable local %s (%s) is captured by a Domain.spawn \
                    closure in %s and %s without holding a lock; workers \
                    race on it — protect it with a mutex or give each \
                    worker a disjoint slot ([@dom.allow \"reason\"] if \
                    disjointness is provable)"
                   name c.c_what c.c_fn
                   (if c.c_write then "written" else
                      "read while another access writes it")))
          group);
  (* D3: lock-order graph, direct and interprocedural *)
  let acqs = List.rev facts.acqs in
  let dcalls =
    List.rev_map (fun c -> (c, resolve_fn ~file:c.dc_file c.dc_path)) facts.dcalls
  in
  (* callers of each function, over every call or only unhandled ones *)
  let callers ~unhandled =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun ((c : dcall), g) ->
        match g with
        | Some g when not (unhandled && c.dc_handled) ->
          Hashtbl.replace tbl g
            (c.dc_fn :: Option.value (Hashtbl.find_opt tbl g) ~default:[])
        | _ -> ())
      dcalls;
    fun g -> Option.value (Hashtbl.find_opt tbl g) ~default:[]
  in
  (* acquires(f): the locks f takes, directly or through its callees *)
  let all_callers = callers ~unhandled:false in
  let acquires = Hashtbl.create 64 in
  reach
    ~succ:(fun (f, l) -> List.map (fun c -> (c, l)) (all_callers f))
    (List.map (fun a -> ((a.aq_fn, a.aq_lock), ())) acqs)
  |> Hashtbl.to_seq_keys
  |> Seq.iter (fun (f, l) ->
         Hashtbl.replace acquires f
           (SS.add l (Option.value (Hashtbl.find_opt acquires f) ~default:SS.empty)));
  let get_acq k = Option.value (Hashtbl.find_opt acquires k) ~default:SS.empty in
  let graph = Lockgraph.create () in
  List.iter
    (fun a ->
      Lockgraph.add_node graph a.aq_lock;
      SS.iter
        (fun h ->
          Lockgraph.add_edge graph ~src:h ~dst:a.aq_lock ~file:a.aq_file
            ~line:a.aq_loc.Location.loc_start.pos_lnum)
        a.aq_held)
    acqs;
  List.iter
    (fun ((c : dcall), g) ->
      if not (SS.is_empty c.dc_held) then
        match g with
        | Some g ->
          SS.iter
            (fun h ->
              SS.iter
                (fun l ->
                  Lockgraph.add_edge graph ~src:h ~dst:l ~file:c.dc_file
                    ~line:c.dc_loc.Location.loc_start.pos_lnum)
                (get_acq g))
            c.dc_held
        | None -> ())
    dcalls;
  List.iter
    (fun cycle ->
      let in_cycle n = List.mem n cycle in
      let witness =
        List.find_opt
          (fun (s, d, _, _) -> in_cycle s && in_cycle d)
          (Lockgraph.edges graph)
      in
      let file, line =
        match witness with
        | Some (_, _, f, l) -> (f, l)
        | None -> ("<unknown>", 0)
      in
      findings :=
        {
          rule = "D3";
          file;
          line;
          col = 0;
          msg =
            Printf.sprintf
              "lock-order cycle %s (potential deadlock): acquisition order \
               must be consistent across all domains"
              (String.concat " -> " (cycle @ [ List.hd cycle ]));
        }
        :: !findings)
    (Lockgraph.cycles graph);
  (* D4: performs must stay under their handler's domain *)
  let performs = List.rev facts.performs in
  let performers =
    reach ~succ:(callers ~unhandled:true)
      (List.filter_map
         (fun p -> if p.pf_handled then None else Some (p.pf_fn, ()))
         performs)
  in
  List.iter
    (fun p ->
      if p.pf_spawn && (not p.pf_handled) && in_reported_dir p.pf_rule then
        report ?allow:p.pf_allow "D4" ~file:p.pf_file ~loc:p.pf_loc
          (Printf.sprintf
             "effect perform inside a Domain.spawn closure in %s has no \
              handler on the spawned domain; effects must be handled \
              (Simthread.spawn's match_with) in the domain that performs \
              them"
             p.pf_fn))
    performs;
  List.iter
    (fun ((c : dcall), g) ->
      if c.dc_spawn && (not c.dc_handled) && in_reported_dir c.dc_rule then
        match g with
        | Some g when Hashtbl.mem performers g ->
          report ?allow:c.dc_allow "D4" ~file:c.dc_file ~loc:c.dc_loc
            (Printf.sprintf
               "call to %s inside a Domain.spawn closure in %s reaches an \
                effect perform with no handler on the spawned domain; \
                wrap the computation in Simthread.spawn (or another \
                handler) before it performs"
               g c.dc_fn)
        | _ -> ())
    dcalls;
  {
    findings = List.sort_uniq compare_finding !findings;
    globals;
    mutable_types;
    graph;
  }
