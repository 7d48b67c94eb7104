(* Interprocedural zero-allocation certifier (rule family A).  See
   alloc.mli for the contract.

   Pipeline: extract one summary per top-level binding of the world
   (allocation/boxing/escape sites, outgoing calls, bare mentions, arity,
   [@hot] flag), propagate hotness from the [@hot] roots through
   resolvable calls and mentions, then classify every site and call of
   every hot function.

   The walk is over the Parsetree, so the judgments are syntactic
   approximations of what ocamlopt actually emits:

   - local [ref] cells and [let rec] loops that do not escape are often
     eliminated by Simplif, and constant constructors/literals are
     statically allocated — the checker already skips constants, and
     flagging the eliminable cases is intentional: hot code written so
     the *front end* provably does not allocate stays allocation-free
     under every optimization level and every future compiler.
   - calls through closures, record fields, and unqualified names that do
     not resolve in the closed world are trusted (they are
     overwhelmingly locals and stdlib int primitives); qualified names
     that neither resolve nor appear in the safe/allocating tables are
     reported (A1 unknown-callee) rather than trusted, so the hot set
     cannot silently grow an unvetted dependency.

   The runtime zero-allocation test (test/sim: Gc.minor_words delta over
   an event churn) backstops both approximations. *)

open World

type result = {
  findings : finding list;
  hot_roots : string list;
  hot_set : string list;
}

(* ------------------------------------------------------------------ *)
(* Vocabulary                                                          *)
(* ------------------------------------------------------------------ *)

(* Calls whose argument subtrees are error paths that terminate the
   simulation: allocation there is exempt (mirrors [@zero_alloc]'s
   relaxed treatment of diverging branches). *)
let diverging_calls =
  [ "invalid_arg"; "failwith"; "raise"; "raise_notrace"; "exit";
    "Alcotest.fail" ]

(* Trace/sanitizer guards: the [Some]-branch of a match on one of these
   (or the then-branch of an if on [debug_checks]) is the
   "observability is on" path, exempt under the zero-cost-when-off
   contract and not part of the hot set. *)
let guard_calls =
  [ "tr"; "san"; "Engine.tracer"; "Engine.sanitizer"; "Env.tr"; "Env.san";
    "debug_checks"; "Engine.debug_checks" ]

(* Unqualified names that allocate. *)
let unqualified_alloc =
  [ ("ref", "ref cell"); ("^", "string concatenation (^)");
    ("@", "list append (@)"); ("string_of_int", "string construction");
    ("string_of_float", "string construction");
    ("float_of_string", "boxed float construction") ]

(* Unqualified float operators/functions: results are boxed unless the
   compiler can prove local unboxing. *)
let float_ops =
  [ "+."; "-."; "*."; "/."; "**"; "~-."; "abs_float"; "sqrt"; "exp"; "log";
    "sin"; "cos"; "mod_float"; "float_of_int" ]

(* Polymorphic comparisons walk runtime representations (and box on the
   way); hot code must compare ints with the int operators. *)
let poly_compare = [ "compare"; "min"; "max"; "Hashtbl.hash" ]

(* Qualified calls known to allocate. *)
let alloc_calls =
  [ "Array.make"; "Array.init"; "Array.create_float"; "Array.append";
    "Array.concat"; "Array.sub"; "Array.copy"; "Array.of_list";
    "Array.to_list"; "Array.map"; "Array.mapi"; "List.map"; "List.mapi";
    "List.append"; "List.concat"; "List.concat_map"; "List.rev";
    "List.rev_append"; "List.filter"; "List.filter_map"; "List.init";
    "List.sort"; "List.sort_uniq"; "List.cons"; "String.make";
    "String.init"; "String.sub"; "String.concat"; "String.cat";
    "String.split_on_char"; "Bytes.create"; "Bytes.make"; "Bytes.sub";
    "Bytes.copy"; "Bytes.of_string"; "Bytes.to_string"; "Hashtbl.create";
    "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.copy"; "Queue.create";
    "Queue.push"; "Queue.add"; "Stack.create"; "Stack.push"; "Option.map";
    "Option.some"; "Option.bind"; "Atomic.make"; "Domain.spawn";
    "Fun.protect" ]

(* Qualified calls known not to allocate (int/unit primitives). *)
let safe_calls =
  [ "Array.get"; "Array.set"; "Array.unsafe_get"; "Array.unsafe_set";
    "Array.length"; "Array.blit"; "Array.fill"; "Hashtbl.find";
    "Hashtbl.mem"; "Hashtbl.remove"; "Hashtbl.length"; "Hashtbl.clear";
    "Hashtbl.reset"; "String.length"; "String.get"; "String.unsafe_get";
    "String.equal"; "String.compare"; "Bytes.length"; "Bytes.get";
    "Bytes.set"; "Bytes.unsafe_get"; "Bytes.unsafe_set"; "Bytes.blit";
    "Bytes.fill"; "Char.code"; "Char.chr"; "Char.equal"; "Int.equal";
    "Int.compare"; "Int.min"; "Int.max"; "Int.abs"; "Atomic.get";
    "Atomic.set"; "Atomic.exchange"; "Atomic.compare_and_set";
    "Atomic.fetch_and_add"; "Atomic.incr"; "Atomic.decr"; "Queue.length";
    "Queue.is_empty"; "Sys.opaque_identity"; "Effect.perform";
    "Domain.DLS.get"; "Array.iter"; "Array.iteri"; "Array.exists";
    "List.iter"; "List.length"; "List.exists"; "List.mem" ]

(* Observability machinery: allocation plus I/O, neither belongs on the
   hot path outside a trace guard. *)
let a3_prefixes = [ "Printf."; "Format."; "Buffer."; "print_"; "prerr_"; "output_" ]

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_suffix suf s =
  String.length s >= String.length suf
  && String.sub s (String.length s - String.length suf) (String.length suf)
     = suf

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

type site = {
  s_rule : string;  (* "A1" | "A2" | "A3" *)
  s_what : string;
  s_loc : Location.t;
  s_allow : allow_site option;  (* covering [@alloc.allow] *)
}

type call = {
  c_path : string;
  c_loc : Location.t;
  c_nargs : int;
  c_labeled : bool;  (* any labelled/optional argument *)
  c_allow : allow_site option;
}

type afn = {
  a_b : binding;
  a_hot : bool;
  a_sites : site list;
  a_calls : call list;
  a_mentions : (string * allow_site option) list;
}

(* Literals, constant constructors, and structured constants built only
   from them are statically allocated: not sites. *)
let rec is_constant (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> true
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> is_constant a
  | Pexp_tuple es -> List.for_all is_constant es
  | _ -> false

type xstate = {
  x_reg : registry;
  x_file : string;
  mutable sites : site list;
  mutable calls : call list;
  mutable mentions : (string * allow_site option) list;
  mutable allow : allow_site option;  (* innermost covering allow *)
  mutable live : bool;  (* false inside diverging args / guard branches *)
}

let allow_of_alloc_attrs st (attrs : Parsetree.attributes) =
  List.fold_left
    (fun acc (a : Parsetree.attribute) ->
      if a.attr_name.txt = "alloc.allow" then
        Some
          (register st.x_reg ~file:st.x_file ~default:"<no reason given>" a)
      else acc)
    None attrs

let site st rule what (loc : Location.t) =
  if st.live then
    st.sites <- { s_rule = rule; s_what = what; s_loc = loc; s_allow = st.allow } :: st.sites

let is_guard_scrutinee (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    matches_any guard_calls (strip_stdlib (path_of_lid txt))
  | _ -> false

let is_some_pattern (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) -> (
    match Longident.last txt with "Some" -> true | _ -> false)
  | _ -> false

let extract_events st (body : Parsetree.expression) =
  let with_allow st site f =
    match site with
    | None -> f ()
    | Some _ ->
      let saved = st.allow in
      st.allow <- site;
      Fun.protect ~finally:(fun () -> st.allow <- saved) f
  in
  let with_dead st f =
    let saved = st.live in
    st.live <- false;
    Fun.protect ~finally:(fun () -> st.live <- saved) f
  in
  let rec walk (e : Parsetree.expression) =
    with_allow st (allow_of_alloc_attrs st e.pexp_attributes) @@ fun () ->
    walk_desc e
  and walk_desc (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun (_, default, _, lam_body) ->
      site st "A1" "closure allocation (lambda with captured environment)"
        e.pexp_loc;
      Option.iter walk default;
      walk lam_body
    | Pexp_function cases ->
      site st "A1" "closure allocation (function with captured environment)"
        e.pexp_loc;
      List.iter
        (fun (c : Parsetree.case) ->
          Option.iter walk c.pc_guard;
          walk c.pc_rhs)
        cases
    | Pexp_tuple es ->
      if not (is_constant e) then
        site st "A1" "tuple construction" e.pexp_loc;
      List.iter walk es
    | Pexp_record (fields, base) ->
      site st "A1" "record construction" e.pexp_loc;
      Option.iter walk base;
      List.iter (fun (_, v) -> walk v) fields
    | Pexp_construct (_, Some arg) ->
      if not (is_constant e) then
        site st "A1" "variant construction (constructor with payload)"
          e.pexp_loc;
      walk arg
    | Pexp_variant (_, Some arg) ->
      if not (is_constant e) then
        site st "A1" "polymorphic-variant construction" e.pexp_loc;
      walk arg
    | Pexp_array [] -> ()
    | Pexp_array es ->
      site st "A1" "array literal" e.pexp_loc;
      List.iter walk es
    | Pexp_lazy inner ->
      site st "A1" "lazy suspension" e.pexp_loc;
      walk inner
    | Pexp_object _ -> site st "A1" "object construction" e.pexp_loc
    | Pexp_pack _ -> site st "A1" "first-class module packing" e.pexp_loc
    | Pexp_constant (Pconst_float _) ->
      (* a float literal is a static box; only flag computed floats *)
      ()
    | Pexp_ident { txt; _ } ->
      if st.live then
        st.mentions <-
          (strip_stdlib (path_of_lid txt), st.allow) :: st.mentions
    | Pexp_apply (f, args) -> (
      match call_shape f args with
      | `Call (path, loc, args) -> walk_app path loc args
      | `Opaque (f, args) ->
        (* call through a closure or field: opaque, trusted *)
        walk f;
        List.iter (fun (_, a) -> walk a) args)
    | Pexp_match (scrut, cases) when is_guard_scrutinee scrut ->
      walk scrut;
      List.iter
        (fun (c : Parsetree.case) ->
          Option.iter walk c.pc_guard;
          if is_some_pattern c.pc_lhs then with_dead st (fun () -> walk c.pc_rhs)
          else walk c.pc_rhs)
        cases
    | Pexp_ifthenelse (cond, then_, else_) when is_guard_scrutinee cond ->
      walk cond;
      with_dead st (fun () -> walk then_);
      Option.iter walk else_
    | Pexp_let (_, vbs, let_body) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          with_allow st (allow_of_alloc_attrs st vb.pvb_attributes)
            (fun () -> walk vb.pvb_expr))
        vbs;
      walk let_body
    | _ ->
      let it =
        { Ast_iterator.default_iterator with expr = (fun _ e -> walk e) }
      in
      Ast_iterator.default_iterator.expr it e
  and walk_app path loc args =
    if List.mem path diverging_calls then
      (* the call terminates the simulation; its message may allocate *)
      with_dead st (fun () -> List.iter (fun (_, a) -> walk a) args)
    else begin
      List.iter (fun (_, a) -> walk a) args;
      if st.live then
        st.calls <-
          {
            c_path = path;
            c_loc = loc;
            c_nargs = List.length args;
            c_labeled =
              List.exists
                (fun ((l : Asttypes.arg_label), _) -> l <> Asttypes.Nolabel)
                args;
            c_allow = st.allow;
          }
          :: st.calls
    end
  in
  (* the parameter chain is the function itself, not a closure it builds *)
  walk (strip_params ~default:walk body)

let binding_arity (e : Parsetree.expression) =
  let rec go acc (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun (Asttypes.Nolabel, _, _, body) -> go (acc + 1) body
    | Pexp_fun (_, _, _, _) -> -1
    | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> go acc body
    | _ -> acc
  in
  go 0 e

let has_hot_attr (attrs : Parsetree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = "hot") attrs

let summarize w (b : binding) =
  let st =
    { x_reg = w.registry; x_file = b.b_file; sites = []; calls = [];
      mentions = []; allow = None; live = true }
  in
  st.allow <- allow_of_alloc_attrs st b.b_vb.pvb_attributes;
  extract_events st b.b_vb.pvb_expr;
  {
    a_b = b;
    a_hot = has_hot_attr b.b_vb.pvb_attributes;
    a_sites = List.rev st.sites;
    a_calls = List.rev st.calls;
    a_mentions = List.rev st.mentions;
  }

(* ------------------------------------------------------------------ *)
(* Classification of an outgoing call                                  *)
(* ------------------------------------------------------------------ *)

(* [None] = provably fine; [Some (rule, what)] = would be a finding. *)
let classify_call w ~file (c : call) =
  let p = c.c_path in
  if List.mem p safe_calls || List.mem p diverging_calls then None
  else
    match List.assoc_opt p unqualified_alloc with
    | Some what -> Some ("A1", what)
    | None ->
      if List.mem p float_ops then
        Some ("A2", "float operation " ^ p ^ " (boxed result)")
      else if List.mem p poly_compare then
        Some
          ( "A2",
            "polymorphic " ^ p
            ^ " walks runtime representations; use int comparisons" )
      else if
        (has_prefix "Int64." p || has_prefix "Int32." p
        || has_prefix "Nativeint." p)
        && not (has_suffix ".to_int" p)
      then Some ("A2", "boxed-integer operation " ^ p)
      else if has_prefix "Float." p then
        Some ("A2", "float operation " ^ p ^ " (boxed result)")
      else if List.exists (fun pre -> has_prefix pre p) a3_prefixes then
        Some ("A3", "observability call " ^ p)
      else if List.mem p alloc_calls || has_prefix "Seq." p then
        Some ("A1", "allocating call " ^ p)
      else if has_suffix "_opt" p && String.contains p '.' then
        Some ("A1", "option-allocating call " ^ p)
      else
        match resolve w.fns ~file p with
        | Some g ->
          let n = binding_arity g.b_vb.pvb_expr in
          if n >= 0 && (not c.c_labeled) && c.c_nargs < n then
            Some
              ( "A1",
                Printf.sprintf
                  "partial application of %s (%d of %d arguments) builds a \
                   closure"
                  g.b_key c.c_nargs n )
          else None
        | None ->
          if String.contains p '.' then
            Some
              ( "A1",
                "call to " ^ p
                ^ " cannot be proven allocation-free (outside the closed \
                   world and not a known-safe primitive)" )
          else None (* unqualified local: trusted *)

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)
(* ------------------------------------------------------------------ *)

let check_project w =
  let fns = List.map (summarize w) w.bindings in
  let by_key = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace by_key f.a_b.b_key f) (List.rev fns);
  (* hot set: roots = [@hot] bindings; propagate through calls and bare
     mentions outside allow regions.  [root_of] remembers which root made
     each function hot, for the finding messages. *)
  let hot_roots =
    List.filter_map (fun f -> if f.a_hot then Some f.a_b.b_key else None) fns
  in
  let resolved fn paths =
    List.filter_map
      (fun (path, allow) ->
        if allow = None then
          Option.map (fun g -> g.b_key) (resolve w.fns ~file:fn.a_b.b_file path)
        else None)
      paths
  in
  let root_of =
    reach
      ~succ:(fun key ->
        match Hashtbl.find_opt by_key key with
        | None -> []
        | Some fn ->
          resolved fn (List.map (fun c -> (c.c_path, c.c_allow)) fn.a_calls)
          @ resolved fn fn.a_mentions)
      (List.map (fun r -> (r, r)) hot_roots)
  in
  let findings = ref [] in
  let provenance fn =
    let key = fn.a_b.b_key in
    let root = Hashtbl.find root_of key in
    if root = key then Printf.sprintf "%s ([@hot] root)" key
    else Printf.sprintf "%s (hot: reachable from [@hot] %s)" key root
  in
  List.iter
    (fun fn ->
      let file = fn.a_b.b_file in
      if Hashtbl.mem root_of fn.a_b.b_key then begin
        List.iter
          (fun (s : site) ->
            report findings ?allow:s.s_allow ~rule:s.s_rule ~file s.s_loc
              (Printf.sprintf
                 "%s in %s; the DES hot path must stay off the OCaml heap — \
                  hoist the value, encode it in ints, or justify with \
                  [@alloc.allow \"reason\"]"
                 s.s_what (provenance fn)))
          fn.a_sites;
        List.iter
          (fun (c : call) ->
            match classify_call w ~file c with
            | None -> ()
            | Some (rule, what) ->
              report findings ?allow:c.c_allow ~rule ~file c.c_loc
                (Printf.sprintf "%s in %s" what (provenance fn)))
          fn.a_calls
      end)
    fns;
  {
    findings = List.sort_uniq compare_finding !findings;
    hot_roots;
    hot_set = List.sort compare (List.of_seq (Hashtbl.to_seq_keys root_of));
  }
