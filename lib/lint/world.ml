(* The closed world shared by the three rule families.

   The world is parsed once and every top-level binding is enumerated
   once.  On top of that the world provides one resolver from call paths
   to bindings, one least-fixpoint helper, one way to turn a location
   into a finding, and one registry of suppression sites.  Each family
   keeps its own Parsetree walker and rule logic:

   - R (Lint): determinism and charge discipline, an intra-procedural
     pass plus an interprocedural one over the call graph;
   - A (Alloc): the zero-allocation certifier over the [@hot] call graph;
   - D (Dom): domain safety and lock order. *)

module SS = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  msg : string;
}

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.msg

let finding_to_string f = Format.asprintf "%a" pp_finding f

let compare_finding a b =
  compare (a.file, a.line, a.col, a.rule, a.msg)
    (b.file, b.line, b.col, b.rule, b.msg)

let finding ~rule ~file (loc : Location.t) msg =
  {
    rule;
    file;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    msg;
  }

(* ------------------------------------------------------------------ *)
(* Suppression sites                                                   *)
(* ------------------------------------------------------------------ *)

(* Every [@lint.allow] / [@alloc.allow] / [@dom.allow] attribute a family
   walks registers one site, keyed by (attribute, file, line), so passes
   that walk the same attribute share one use record.  A site that
   absorbs no finding is stale, and [--strict-suppressions] fails on
   it. *)
type allow_site = {
  as_attr : string;
  as_file : string;
  as_line : int;
  as_payload : string;
  mutable as_rules : string list;
}

let uses s = List.length s.as_rules

type registry = {
  reg_tbl : (string * string * int, allow_site) Hashtbl.t;
  mutable reg_order : allow_site list;  (** reverse registration order *)
}

let payload_string (p : Parsetree.payload) =
  match p with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

let register reg ~file ?(default = "") (a : Parsetree.attribute) =
  let line = a.attr_loc.loc_start.pos_lnum in
  let key = (a.attr_name.txt, file, line) in
  match Hashtbl.find_opt reg.reg_tbl key with
  | Some s -> s
  | None ->
    let s =
      {
        as_attr = a.attr_name.txt;
        as_file = file;
        as_line = line;
        as_payload = Option.value (payload_string a.attr_payload) ~default;
        as_rules = [];
      }
    in
    Hashtbl.replace reg.reg_tbl key s;
    reg.reg_order <- s :: reg.reg_order;
    s

let allow_sites reg attrs =
  List.filter (fun s -> List.mem s.as_attr attrs) reg.reg_order
  |> List.sort (fun a b -> compare (a.as_file, a.as_line) (b.as_file, b.as_line))

let report findings ?allow ~rule ~file loc msg =
  match allow with
  | Some s -> s.as_rules <- rule :: s.as_rules
  | None -> findings := finding ~rule ~file loc msg :: !findings

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let strip_stdlib p =
  if String.length p > 7 && String.sub p 0 7 = "Stdlib." then
    String.sub p 7 (String.length p - 7)
  else p

(* [matches "Hierarchy.load" path] accepts both the alias form
   ("Hierarchy.load") and the fully qualified one
   ("Mutps_mem.Hierarchy.load"). *)
let matches target path =
  path = target
  || (String.length path > String.length target
      && String.sub path
           (String.length path - String.length target - 1)
           (String.length target + 1)
         = "." ^ target)

let matches_any targets path = List.exists (fun t -> matches t path) targets

let path_of_lid lid =
  match Longident.flatten lid with
  | parts -> String.concat "." parts
  | exception _ -> ""

let in_dir dir rule_path =
  let pre = dir ^ "/" and mid = "/" ^ dir ^ "/" in
  let rec contains i =
    i + String.length mid <= String.length rule_path
    && (String.sub rule_path i (String.length mid) = mid || contains (i + 1))
  in
  (String.length rule_path >= String.length pre
  && String.sub rule_path 0 (String.length pre) = pre)
  || contains 0

let module_name_of_file file =
  String.capitalize_ascii Filename.(remove_extension (basename file))

(* ------------------------------------------------------------------ *)
(* Expression shapes                                                   *)
(* ------------------------------------------------------------------ *)

type args = (Asttypes.arg_label * Parsetree.expression) list

let call_shape (f : Parsetree.expression) (args : args) =
  let named (g : Parsetree.expression) extra =
    match g.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, gargs) ->
      Some (strip_stdlib (path_of_lid txt), loc, gargs @ extra)
    | Pexp_ident { txt; loc } -> Some (strip_stdlib (path_of_lid txt), loc, extra)
    | _ -> None
  in
  let infix g x =
    let extra = [ (Asttypes.Nolabel, x) ] in
    match named g extra with Some c -> `Call c | None -> `Opaque (g, extra)
  in
  match f.pexp_desc with
  | Pexp_ident { txt; loc } -> (
    match (strip_stdlib (path_of_lid txt), args) with
    | "@@", [ (_, g); (_, x) ] | "|>", [ (_, x); (_, g) ] -> infix g x
    | path, _ -> `Call (path, loc, args))
  | _ -> `Opaque (f, args)

let rec strip_params ~default (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, d, _, body) ->
    Option.iter default d;
    strip_params ~default body
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) ->
    strip_params ~default body
  | _ -> e

(* ------------------------------------------------------------------ *)
(* Index and resolution                                                *)
(* ------------------------------------------------------------------ *)

type 'a index = {
  by_key : (string, 'a) Hashtbl.t;
  by_short : (string * string, 'a) Hashtbl.t;  (** (file, binding name) *)
  keys : string list;
  ambiguous : SS.t;  (** keys bound twice: never resolved *)
}

let index ~key ~file xs =
  let by_key = Hashtbl.create 256 and by_short = Hashtbl.create 256 in
  let ambiguous = ref SS.empty and keys = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      if Hashtbl.mem by_key k then ambiguous := SS.add k !ambiguous
      else begin
        Hashtbl.replace by_key k x;
        keys := k :: !keys
      end;
      let short =
        match String.rindex_opt k '.' with
        | Some i -> String.sub k (i + 1) (String.length k - i - 1)
        | None -> k
      in
      Hashtbl.replace by_short (file x, short) x)
    xs;
  { by_key; by_short; keys = List.rev !keys; ambiguous = !ambiguous }

let resolve idx ~file path =
  if path = "" then None
  else if not (String.contains path '.') then
    Hashtbl.find_opt idx.by_short (file, path)
  else
    match Hashtbl.find_opt idx.by_key path with
    | Some x when not (SS.mem path idx.ambiguous) -> Some x
    | _ -> (
      (* alias / fully-qualified spelling: unique suffix match *)
      match
        List.filter
          (fun k -> matches k path && not (SS.mem k idx.ambiguous))
          idx.keys
      with
      | [ k ] -> Hashtbl.find_opt idx.by_key k
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                            *)
(* ------------------------------------------------------------------ *)

let reach ~succ seeds =
  let seen = Hashtbl.create 64 and work = Queue.create () in
  let mark (k, v) =
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k v;
      Queue.add k work
    end
  in
  List.iter mark seeds;
  while not (Queue.is_empty work) do
    let k = Queue.pop work in
    let v = Hashtbl.find seen k in
    List.iter (fun s -> mark (s, v)) (succ k)
  done;
  seen

(* ------------------------------------------------------------------ *)
(* The world                                                           *)
(* ------------------------------------------------------------------ *)

type binding = {
  b_key : string;
  b_file : string;
  b_rule : string;
  b_vb : Parsetree.value_binding;
  b_floating : Parsetree.attribute list;
}

type t = {
  sources : (string * string * Parsetree.structure) list;
  bindings : binding list;
  floating : (string * Parsetree.attribute) list;
  fns : binding index;
  registry : registry;
}

let parse_implementation path =
  In_channel.with_open_bin path (fun ic ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      Parse.implementation lexbuf)

(* Top-level bindings of one file, including those in nested
   [module X = struct ... end], each with the floating attributes in
   force where it is bound. *)
let bindings_of ~floating (file, rule_path, str) =
  let anon = ref 0 and acc = ref [] in
  let rec items prefix in_force str =
    ignore
      (List.fold_left
         (fun in_force (si : Parsetree.structure_item) ->
           match si.pstr_desc with
           | Pstr_attribute a ->
             floating := (file, a) :: !floating;
             a :: in_force
           | Pstr_value (_, vbs) ->
             List.iter
               (fun (vb : Parsetree.value_binding) ->
                 let name =
                   match vb.pvb_pat.ppat_desc with
                   | Ppat_var { txt; _ }
                   | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _)
                     ->
                     txt
                   | _ ->
                     incr anon;
                     Printf.sprintf "<toplevel:%d>" !anon
                 in
                 acc :=
                   {
                     b_key = prefix ^ name;
                     b_file = file;
                     b_rule = rule_path;
                     b_vb = vb;
                     b_floating = in_force;
                   }
                   :: !acc)
               vbs;
             in_force
           | Pstr_module
               {
                 pmb_name = { txt = Some sub; _ };
                 pmb_expr = { pmod_desc = Pmod_structure s; _ };
                 _;
               } ->
             items (prefix ^ sub ^ ".") in_force s;
             in_force
           | _ -> in_force)
         in_force str)
  in
  items (module_name_of_file file ^ ".") [] str;
  List.rev !acc

let make sources =
  let floating = ref [] in
  let bindings = List.concat_map (bindings_of ~floating) sources in
  {
    sources;
    bindings;
    floating = List.rev !floating;
    fns = index ~key:(fun b -> b.b_key) ~file:(fun b -> b.b_file) bindings;
    registry = { reg_tbl = Hashtbl.create 32; reg_order = [] };
  }
