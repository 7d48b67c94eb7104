(* The R family: determinism & charge discipline for the simulation.

   R1  no wall-clock / ambient nondeterminism: [Sys.time], [Unix.*time*],
       [Stdlib.Random], randomized hash tables, and [Hashtbl.iter]/[fold]
       (whose order can leak into simulated state) are forbidden — only
       [Mutps_sim.Rng] may produce randomness.
   R2  charged memory: outside [lib/mem], CPU-side traffic must flow
       through [Env.load]/[store]/[prefetch_batch]; direct
       [Hierarchy.load]/[store]/[prefetch_batch] calls are forbidden, and
       so are calls from [lib/] into a function that reaches such traffic
       without passing through [lib/mem].
   R3  commit discipline: a read of a registered shared-mutable field
       (seqlock versions, ring cursors, forwarding completion fields) that
       is not dominated by a commit-family call in its function is
       reported when the function is exposed: it can be entered with
       uncommitted cycles.
   R4  effect safety: [Simthread.delay]/[suspend]/[yield]/[commit]/[charge]
       only from code that holds a simulated-thread context (a [ctx]
       parameter, a [Simthread.spawn] callback, or an [Env.t]'s [.ctx]
       field); no [Obj.magic]; no physical (in)equality.

   R1, R4 and direct R2 are judged per expression by the intra pass; R3
   and indirect R2 by the interprocedural pass over the call graph.  Its
   three relations are:

   - [commits f] — f's body reaches a commit-family call at lambda depth
     zero, directly or by calling a committing function (a
     branch-insensitive, traversal-order approximation).
   - [exposed f] — f has no syntactic call site in the world (an entry
     point, or a function only ever passed as a closure), or some call
     site is not commit-dominated and its caller is itself exposed.
   - [reaches f] — f performs Hierarchy traffic outside [lib/mem],
     directly or through calls that do not pass through [lib/mem].

   Call sites are syntactic applications of resolvable names; calls
   through closures, record fields and functors are opaque; a bare
   (unapplied) reference to a known function marks it exposed, since the
   closure may run anywhere.  Lambdas passed to [Env.tagged] run exactly
   once, inline, so their bodies are analyzed at the caller's depth;
   every other lambda saves and restores the domination state.

   Any finding can be suppressed at the expression with
   [[@lint.allow "R3"]], at the binding with [[@@lint.allow "R3"]], or for
   the rest of the file with [[@@@lint.allow "R3"]] (several rule names may
   be given in one string, space- or comma-separated; "all" matches every
   rule). *)

module SS = Set.Make (String)
open World

(* ------------------------------------------------------------------ *)
(* Rule tables                                                         *)
(* ------------------------------------------------------------------ *)

(* R1: ambient time / randomness sources. *)
let wallclock_idents =
  [ "Sys.time"; "Unix.time"; "Unix.gettimeofday"; "Unix.localtime";
    "Unix.gmtime"; "Unix.sleep"; "Unix.sleepf" ]

(* R1: hash-table traversals whose order depends on internal layout. *)
let unordered_traversals = [ "Hashtbl.iter"; "Hashtbl.fold" ]

(* R2: CPU-side hierarchy traffic that must be charged through Env. *)
let hierarchy_traffic = [ "Hierarchy.load"; "Hierarchy.store"; "Hierarchy.prefetch_batch" ]

(* R3: registered shared-mutable fields.  Reads must follow a commit so
   the reader observes other threads' effects up to its own simulated
   time. *)
let shared_fields =
  [
    ("version", "Item seqlock version");
    ("head", "ring producer cursor");
    ("tail", "ring completion cursor");
    ("reclaimed", "ring reclaim cursor");
    ("resp_addr", "Fwd completion field");
    ("resp_bytes", "Fwd completion field");
    ("resp_value", "Fwd completion field");
  ]

(* R3: calls that flush the caller's accumulated cycles (directly or, for
   the queue operations, internally) and therefore dominate a subsequent
   shared-state read. *)
let commit_family =
  [
    "Env.commit"; "Simthread.commit"; "Simthread.delay"; "Simthread.yield";
    "Simthread.suspend"; "Condvar.wait"; "Ring.push"; "Ring.peek";
    "Ring.take_completed"; "Crmr.push"; "Crmr.next_batch";
    "Crmr.take_completed"; "Env.assert_committed";
  ]

(* R4: operations that require a simulated-thread context. *)
let simthread_ops =
  [
    "Simthread.delay"; "Simthread.yield"; "Simthread.suspend";
    "Simthread.commit"; "Simthread.charge"; "Condvar.wait";
  ]

let forbidden_obj = [ "Obj.magic"; "Obj.repr"; "Obj.obj" ]

(* ------------------------------------------------------------------ *)
(* Suppressions                                                        *)
(* ------------------------------------------------------------------ *)

(* One entry per [@lint.allow] attribute: the rules it names and its
   registry site. *)
let allow_entries w ~file (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt = "lint.allow" then
        let site = register w.registry ~file a in
        let rules =
          String.split_on_char ' ' site.as_payload
          |> List.concat_map (String.split_on_char ',')
        in
        Some (SS.of_list rules, site)
      else None)
    attrs

let covering allows rule =
  List.find_map
    (fun (rules, site) ->
      if SS.mem rule rules || SS.mem "all" rules then Some site else None)
    allows

(* ------------------------------------------------------------------ *)
(* The intra pass: R1, R4 and direct R2                                *)
(* ------------------------------------------------------------------ *)

type state = {
  w : World.t;
  file : string;
  rule_path : string;
  findings : finding list ref;
  mutable sim : bool list;
      (** per enclosing function, innermost first: it holds a simulated
          thread context *)
  mutable allows : (SS.t * allow_site) list;  (** suppression stack *)
  mutable force_sim : bool;
      (** the next lambda visited is a [Simthread.spawn] callback *)
}

let report st rule loc msg =
  World.report st.findings ?allow:(covering st.allows rule) ~rule
    ~file:st.file loc msg

let rec pattern_binds_ctx (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt = ("ctx" | "_ctx"); _ } -> true
  | Ppat_alias (p, { txt = ("ctx" | "_ctx"); _ }) -> pattern_binds_ctx p || true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pattern_binds_ctx p
  | Ppat_tuple ps -> List.exists pattern_binds_ctx ps
  | _ -> false

(* First positional argument of a Simthread call: an [Env.t]'s [.ctx] field
   also proves the caller holds a thread context. *)
let arg_is_ctx_field (args : args) =
  match
    List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args
  with
  | Some (_, { pexp_desc = Pexp_field (_, { txt; _ }); _ }) -> (
    match Longident.last txt with "ctx" -> true | _ -> false)
  | _ -> false

let check_ident st (loc : Location.t) path =
  let p = strip_stdlib path in
  (* R1: wall clock and ambient randomness *)
  if List.mem p wallclock_idents then
    report st "R1" loc
      (Printf.sprintf
         "%s reads the wall clock; simulated time must come from Engine.now \
          / Simthread.now"
         p);
  if String.length p > 7 && String.sub p 0 7 = "Random." then
    report st "R1" loc
      (Printf.sprintf
         "%s is ambient randomness; only Mutps_sim.Rng (seeded, splittable) \
          may produce random values"
         p);
  if List.mem p unordered_traversals then
    report st "R1" loc
      (Printf.sprintf
         "%s traverses in unspecified order, which can leak into simulated \
          state; sort the keys (e.g. Hashtbl.to_seq + List.sort) or use an \
          ordered map"
         p);
  (* R2: uncharged memory traffic *)
  if (not (in_dir "lib/mem" st.rule_path)) && matches_any hierarchy_traffic path
  then
    report st "R2" loc
      (Printf.sprintf
         "%s bypasses the charge discipline; route traffic through Env.load \
          / Env.store / Env.prefetch_batch so cycles land in the thread's \
          accumulator"
         path);
  (* R4: Obj escape hatches *)
  if List.mem p forbidden_obj then
    report st "R4" loc (p ^ " defeats the type system; forbidden in the simulation")

let check_apply st (loc : Location.t) path (args : args) =
  let p = strip_stdlib path in
  (* R1: randomized hash tables *)
  (if matches "Hashtbl.create" p then
     let randomized =
       List.exists
         (fun ((l : Asttypes.arg_label), (e : Parsetree.expression)) ->
           match l with
           | Labelled "random" | Optional "random" -> (
             match e.pexp_desc with
             | Pexp_construct ({ txt = Lident "false"; _ }, None) -> false
             | _ -> true)
           | _ -> false)
         args
     in
     if randomized then
       report st "R1" loc
         "Hashtbl.create ~random:true seeds iteration order from the \
          process; use the default deterministic layout");
  (* R4: physical equality *)
  (match p with
  | "==" | "!=" ->
    report st "R4" loc
      "physical (in)equality on simulation values is \
       representation-dependent; use structural comparison or an explicit id"
  | _ -> ());
  (* R4: Simthread operations need a thread context *)
  if
    matches_any simthread_ops path
    && (not (in_dir "lib/sim" st.rule_path))
    && (not (List.hd st.sim))
    && not (arg_is_ctx_field args)
  then
    report st "R4" loc
      (Printf.sprintf
         "%s is only legal from a simulated thread (a [ctx] parameter, a \
          Simthread.spawn callback, or an Env.t's .ctx)"
         path)

let with_allows st entries f =
  if entries = [] then f ()
  else begin
    let saved = st.allows in
    st.allows <- entries @ st.allows;
    Fun.protect ~finally:(fun () -> st.allows <- saved) f
  end

let with_scope st sim f =
  st.sim <- sim :: st.sim;
  Fun.protect ~finally:(fun () -> st.sim <- List.tl st.sim) f

let iterator st =
  let open Ast_iterator in
  let entries attrs = allow_entries st.w ~file:st.file attrs in
  let lambda it e ~binds_ctx =
    let sim = List.hd st.sim || st.force_sim || binds_ctx in
    st.force_sim <- false;
    with_scope st sim (fun () -> default_iterator.expr it e)
  in
  let expr it (e : Parsetree.expression) =
    with_allows st (entries e.pexp_attributes) @@ fun () ->
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
      check_ident st loc (path_of_lid txt);
      default_iterator.expr it e
    | Pexp_fun (_, _, pat, _) -> lambda it e ~binds_ctx:(pattern_binds_ctx pat)
    | Pexp_function _ -> lambda it e ~binds_ctx:false
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
      let path = path_of_lid txt in
      check_ident st loc path;
      check_apply st loc path args;
      if matches "Simthread.spawn" path then
        (* the function argument of spawn runs as a simulated thread *)
        List.iter
          (fun ((_, a) : Asttypes.arg_label * Parsetree.expression) ->
            (match a.pexp_desc with
            | Pexp_fun _ | Pexp_function _ -> st.force_sim <- true
            | _ -> ());
            it.expr it a;
            st.force_sim <- false)
          args
      else List.iter (fun (_, a) -> it.expr it a) args
    | _ -> default_iterator.expr it e
  in
  let value_binding it (vb : Parsetree.value_binding) =
    with_allows st (entries vb.pvb_attributes) @@ fun () ->
    default_iterator.value_binding it vb
  in
  let structure_item it (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_attribute a when a.attr_name.txt = "lint.allow" ->
      (* [@@@lint.allow "..."] suppresses for the rest of the file *)
      st.allows <- entries [ a ] @ st.allows
    | Pstr_value _ ->
      (* each top-level binding starts outside any thread context *)
      with_scope st false (fun () -> default_iterator.structure_item it si)
    | _ -> default_iterator.structure_item it si
  in
  { default_iterator with expr; value_binding; structure_item }

let check_intra w findings (file, rule_path, str) =
  let st =
    { w; file; rule_path; findings; sim = [ false ]; allows = [];
      force_sim = false }
  in
  let it = iterator st in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* The interprocedural pass: R3 and indirect R2                        *)
(* ------------------------------------------------------------------ *)

type ev =
  | Call of { path : string; loc : Location.t; r2_allow : allow_site option }
      (** syntactic application of a named target; [r2_allow] is the
          covering [@lint.allow "R2"], if any *)
  | Mention of string  (** bare reference: the target escapes as a closure *)
  | Read of {
      field : string;
      what : string;
      loc : Location.t;
      r3_allow : allow_site option;
    }
  | Open_lam of bool  (** [true] = transparent (runs inline exactly once) *)
  | Close_lam

(* Walk one binding body, producing its event stream in traversal
   order. *)
let extract_events w (b : binding) =
  let file = b.b_file in
  let buf = ref [] in
  let allows =
    ref
      (allow_entries w ~file b.b_vb.pvb_attributes
      @ allow_entries w ~file b.b_floating)
  in
  let emit e = buf := e :: !buf in
  let with_attrs attrs f =
    match allow_entries w ~file attrs with
    | [] -> f ()
    | att ->
      let saved = !allows in
      allows := att @ !allows;
      Fun.protect ~finally:(fun () -> allows := saved) f
  in
  let rec walk (e : Parsetree.expression) =
    with_attrs e.pexp_attributes @@ fun () ->
    match e.pexp_desc with
    | Pexp_fun (_, default, _, body) ->
      Option.iter walk default;
      emit (Open_lam false);
      walk body;
      emit Close_lam
    | Pexp_function cases ->
      emit (Open_lam false);
      List.iter
        (fun (c : Parsetree.case) ->
          Option.iter walk c.pc_guard;
          walk c.pc_rhs)
        cases;
      emit Close_lam
    | Pexp_newtype (_, body) -> walk body
    | Pexp_apply (f, args) -> (
      match call_shape f args with
      | `Call (path, loc, args) -> walk_app path loc args
      | `Opaque (f, args) ->
        (* call through a closure / field: opaque target *)
        walk f;
        List.iter (fun (_, a) -> walk a) args)
    | Pexp_field (inner, { txt; loc }) ->
      walk inner;
      let name = try Longident.last txt with _ -> "" in
      (match List.assoc_opt name shared_fields with
      | Some what ->
        emit
          (Read { field = name; what; loc; r3_allow = covering !allows "R3" })
      | None -> ())
    | Pexp_ident { txt; _ } ->
      emit (Mention (strip_stdlib (path_of_lid txt)))
    | Pexp_let (_, vbs, body) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          with_attrs vb.pvb_attributes (fun () -> walk vb.pvb_expr))
        vbs;
      walk body
    | _ ->
      (* generic recursion over sub-expressions *)
      let it =
        { Ast_iterator.default_iterator with expr = (fun _ e -> walk e) }
      in
      Ast_iterator.default_iterator.expr it e
  and walk_app path loc args =
    (* [Env.tagged env "site" (fun () -> ...)]: the lambda runs inline,
       exactly once — analyze it at the caller's depth so commits and
       reads inside it belong to the enclosing function *)
    let transparent = matches "Env.tagged" path in
    List.iter
      (fun ((_, a) : Asttypes.arg_label * Parsetree.expression) ->
        match a.pexp_desc with
        | (Pexp_fun _ | Pexp_function _) when transparent ->
          emit (Open_lam true);
          walk (strip_params ~default:walk a);
          emit Close_lam
        | _ -> walk a)
      args;
    (* the call itself comes after its arguments *)
    emit (Call { path; loc; r2_allow = covering !allows "R2" })
  in
  (* the parameter chain of the binding is the function's own body: walk
     it transparently (no lambda frame) *)
  walk (strip_params ~default:walk b.b_vb.pvb_expr);
  List.rev !buf

(* Interpret an event stream: track lexical commit domination (with
   lambda save/restore) and opaque-lambda depth, calling back on each
   call site and shared-field read with whether it is dominated. *)
let replay ~call_commits events ~on_call ~on_read =
  let committed = ref false and depth = ref 0 and stack = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Open_lam true -> stack := None :: !stack
      | Open_lam false ->
        stack := Some !committed :: !stack;
        incr depth
      | Close_lam -> (
        match !stack with
        | None :: tl -> stack := tl
        | Some c :: tl ->
          stack := tl;
          committed := c;
          decr depth
        | [] -> ())
      | Mention _ -> ()
      | Read { field; what; loc; r3_allow } ->
        on_read ~dominated:!committed (field, what, loc, r3_allow)
      | Call { path; loc; r2_allow } ->
        on_call ~dominated:!committed ~depth:!depth (path, loc, r2_allow);
        if matches_any commit_family path || call_commits path then
          committed := true)
    events

let check_interp w findings =
  let fns = List.map (fun b -> (b, extract_events w b)) w.bindings in
  let resolve (b : binding) path = World.resolve w.fns ~file:b.b_file path in
  let in_mem (b : binding) = in_dir "lib/mem" b.b_rule in
  let push tbl k v =
    Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
  in
  let edges tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[] in
  (* commits(f): reverse reachability from direct committers through
     call sites at lambda depth zero *)
  let callers0 = Hashtbl.create 256 and committers = ref [] in
  List.iter
    (fun (b, events) ->
      replay events ~call_commits:(fun _ -> false) ~on_read:(fun ~dominated:_ _ -> ())
        ~on_call:(fun ~dominated:_ ~depth (path, _, _) ->
          if depth = 0 then
            if matches_any commit_family path then
              committers := (b.b_key, ()) :: !committers
            else
              Option.iter (fun g -> push callers0 g.b_key b.b_key) (resolve b path)))
    fns;
  let commits = reach ~succ:(edges callers0) !committers in
  (* one replay per function with the final commit set *)
  let calls = Hashtbl.create 256 (* caller -> (callee, loc, r2_allow) *)
  and reads = Hashtbl.create 256 (* function -> undominated reads *)
  and has_site = Hashtbl.create 256
  and undominated = Hashtbl.create 256 (* caller -> undominated callees *)
  and raw_callers = Hashtbl.create 256 (* callee outside lib/mem -> callers *)
  and seeds = ref [] in
  List.iter
    (fun ((b : binding), events) ->
      replay events
        ~call_commits:(fun path ->
          match resolve b path with
          | Some g -> Hashtbl.mem commits g.b_key
          | None -> false)
        ~on_read:(fun ~dominated r -> if not dominated then push reads b.b_key r)
        ~on_call:(fun ~dominated ~depth:_ (path, loc, r2_allow) ->
          match resolve b path with
          | Some g ->
            push calls b.b_key (g, loc, r2_allow);
            Hashtbl.replace has_site g.b_key ();
            if not dominated then push undominated b.b_key g.b_key;
            if not (in_mem g) then push raw_callers g.b_key b.b_key
          | None -> ());
      List.iter
        (function
          | Mention p ->
            Option.iter (fun g -> seeds := (g.b_key, ()) :: !seeds) (resolve b p)
          | _ -> ())
        events)
    fns;
  (* exposed(f): reachable from entry points and escaping closures
     through undominated call sites *)
  List.iter
    (fun ((b : binding), _) ->
      if not (Hashtbl.mem has_site b.b_key) then seeds := (b.b_key, ()) :: !seeds)
    fns;
  let exposed = reach ~succ:(edges undominated) !seeds in
  (* R3: an undominated read in an exposed function *)
  List.iter
    (fun ((b : binding), _) ->
      if Hashtbl.mem exposed b.b_key then
        List.iter
          (fun (field, what, loc, r3_allow) ->
            World.report findings ?allow:r3_allow ~rule:"R3" ~file:b.b_file loc
              (Printf.sprintf
                 "read of shared-mutable field .%s (%s): %s can run with \
                  uncommitted cycles (it is an entry point, escapes as a \
                  closure, or has a call site that is not commit-dominated); \
                  commit before the read or at every call site"
                 field what b.b_key))
          (edges reads b.b_key))
    fns;
  (* R2: reaches(f) — reverse reachability from raw Hierarchy traffic
     outside lib/mem, through callees outside lib/mem *)
  let raw =
    List.filter_map
      (fun ((b : binding), events) ->
        let traffic = function
          | Call { path; _ } -> matches_any hierarchy_traffic path
          | _ -> false
        in
        if (not (in_mem b)) && List.exists traffic events then Some (b.b_key, ())
        else None)
      fns
  in
  let reaches = reach ~succ:(edges raw_callers) raw in
  List.iter
    (fun ((b : binding), _) ->
      if in_dir "lib" b.b_rule then
        List.iter
          (fun ((g : binding), loc, r2_allow) ->
            if (not (in_mem g)) && Hashtbl.mem reaches g.b_key then
              World.report findings ?allow:r2_allow ~rule:"R2" ~file:b.b_file loc
                (Printf.sprintf
                   "call to %s reaches uncharged Hierarchy traffic (a \
                    sanctioned raw access further down the call graph); \
                    route this path through Env.load / Env.store / \
                    Env.prefetch_batch so the cycles land in the thread's \
                    accumulator"
                   g.b_key))
          (edges calls b.b_key))
    fns

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let check_project w =
  let intra = ref [] and inter = ref [] in
  List.iter (check_intra w intra) w.sources;
  check_interp w inter;
  (* a shadowed binding shares its key, so its call sites can repeat *)
  List.sort compare_finding (!intra @ List.sort_uniq compare_finding !inter)

let check_string ?(file = "<string>") ?(rule_path = file) src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | str -> Ok (check_project (World.make [ (file, rule_path, str) ]))
  | exception Syntaxerr.Error _ ->
    Error (Printf.sprintf "%s: syntax error" file)

let check_file ?rule_path path =
  let rule_path = Option.value rule_path ~default:path in
  match parse_implementation path with
  | str -> Ok (check_project (World.make [ (path, rule_path, str) ]))
  | exception Syntaxerr.Error _ ->
    Error (Printf.sprintf "%s: syntax error" path)
  | exception Sys_error m -> Error m
