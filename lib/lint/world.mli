(** The closed world shared by the three lint families.

    The world is parsed once and every top-level binding is enumerated
    once.  It provides one resolver from call paths to bindings, one
    least-fixpoint helper, one finding-from-location constructor and one
    suppression registry.  The families keep their own Parsetree walkers
    and rule logic: R ({!Lint}, determinism and charge discipline), A
    ({!Alloc}, zero allocation on the [[\@hot]] path) and D ({!Dom},
    domain safety and lock order). *)

(** {1 Findings} *)

type finding = {
  rule : string;  (** "R1" .. "R4", "A1" .. "A3", "D1" .. "D4" *)
  file : string;
  line : int;
  col : int;
  msg : string;
}

val pp_finding : Format.formatter -> finding -> unit
(** Renders ["file:line:col: [RULE] message"]. *)

val finding_to_string : finding -> string
val compare_finding : finding -> finding -> int

(** {1 Suppression sites}

    Every suppression attribute a family walks ([[\@lint.allow]],
    [[\@alloc.allow]], [[\@dom.allow]]) registers one {!allow_site},
    keyed by (attribute, file, line), so passes that walk the same
    attribute share one use record.  A site that absorbed no finding is
    stale and should be deleted ([mutps-lint --strict-suppressions] fails
    on it). *)

type allow_site = {
  as_attr : string;  (** attribute name, e.g. ["lint.allow"] *)
  as_file : string;
  as_line : int;
  as_payload : string;  (** payload text: rule list or reason *)
  mutable as_rules : string list;
      (** rule of each finding this site absorbed, newest first *)
}

val uses : allow_site -> int
(** Findings the site absorbed. *)

type registry

val register :
  registry -> file:string -> ?default:string -> Parsetree.attribute -> allow_site
(** The site of an attribute, created on first sight.  [default] (["" ]
    unless given) stands in for a payload that is not a string
    literal. *)

val allow_sites : registry -> string list -> allow_site list
(** Sites of the given attributes, ordered by (file, line). *)

val report :
  finding list ref ->
  ?allow:allow_site ->
  rule:string ->
  file:string ->
  Location.t ->
  string ->
  unit
(** Records a finding at the start of the location, or charges it to
    the suppression site [allow] that covers it. *)

(** {1 Paths} *)

val strip_stdlib : string -> string

val matches : string -> string -> bool
(** [matches "Hierarchy.load" p] accepts ["Hierarchy.load"] and any
    qualified spelling ending in [".Hierarchy.load"]. *)

val matches_any : string list -> string -> bool
val path_of_lid : Longident.t -> string

val in_dir : string -> string -> bool
(** [in_dir "lib/mem" p]: [p] lies under a [lib/mem] directory. *)

(** {1 Expression shapes} *)

type args = (Asttypes.arg_label * Parsetree.expression) list

val call_shape :
  Parsetree.expression ->
  args ->
  [ `Call of string * Location.t * args
  | `Opaque of Parsetree.expression * args ]
(** The shape of the application [f args].  [f a b], [f a @@ b] and
    [b |> f a] are all [`Call ("f", loc, [a; b])], with [Stdlib.]
    stripped from the path.  A head that is not a name is [`Opaque]. *)

val strip_params :
  default:(Parsetree.expression -> unit) ->
  Parsetree.expression ->
  Parsetree.expression
(** The body under a parameter chain (through [fun], [newtype] and type
    constraints); [default] sees each optional-argument default on the
    way. *)

(** {1 Index and resolution} *)

type 'a index

val index : key:('a -> string) -> file:('a -> string) -> 'a list -> 'a index
(** Indexes values by key ("Module.binding") and by (file, binding
    name).  A key bound twice is ambiguous and never resolves. *)

val resolve : 'a index -> file:string -> string -> 'a option
(** Resolves a path written in [file]: an unqualified name to the
    binding of that name in the same file, a qualified one to the
    unambiguous key it spells (exactly, or as a unique suffix). *)

(** {1 Fixpoint} *)

val reach : succ:('k -> 'k list) -> ('k * 'v) list -> ('k, 'v) Hashtbl.t
(** Least fixpoint by worklist: each seed is reached with its value, and
    a reached node passes its value to every successor not yet reached,
    breadth first, so a node keeps the value of its first path. *)

(** {1 The world} *)

type binding = {
  b_key : string;  (** "Module.name", "Module.Sub.name" or "Module.<toplevel:N>" *)
  b_file : string;
  b_rule : string;  (** rule path, for directory-scoped decisions *)
  b_vb : Parsetree.value_binding;
  b_floating : Parsetree.attribute list;
      (** floating attributes ([[\@\@\@...]]) in force, newest first *)
}

type t = {
  sources : (string * string * Parsetree.structure) list;
      (** (file, rule path, AST) *)
  bindings : binding list;  (** in source order *)
  floating : (string * Parsetree.attribute) list;
      (** every floating attribute, with its file, in source order *)
  fns : binding index;
  registry : registry;
}

val parse_implementation : string -> Parsetree.structure
(** Parses one implementation file (raises [Syntaxerr.Error] /
    [Sys_error]). *)

val make : (string * string * Parsetree.structure) list -> t
(** The world of [(file, rule_path, ast)] sources, with an empty
    registry.  [rule_path] stands in for [file] in directory-scoped
    rules, so a fixture can pose as a file elsewhere in the tree. *)
