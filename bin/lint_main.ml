(* Driver for the three lint families (lib/lint): the determinism &
   charge-discipline rules, the zero-allocation certifier and the
   domain-safety certifier.

   Usage: mutps_lint [--format text|json] [--strict-suppressions]
                     [--lock-graph FILE] [DIR-OR-FILE ...]
                                          (default roots: lib bin bench examples)

   Every file is parsed once into one closed world (lib/lint/world.ml),
   which the three families then analyze: the R rules (lib/lint/lint.ml),
   an intra-procedural pass for R1/R2/R4 plus an interprocedural one that
   judges R3 across call sites and catches R2 leaks through sanctioned
   raw-access helpers; the allocation certifier (lib/lint/alloc.ml),
   which proves every function reachable from a [@hot] root free of heap
   allocation (A1), boxing (A2) and observability escapes (A3); and the
   domain-safety certifier (lib/lint/dom.ml), which proves module-level
   mutable state synchronized (D1), spawn captures protected (D2), the
   lock-order graph acyclic (D3) and effect performs handler-dominated
   per domain (D4).

   Emits "file:line:col: [RULE] message" per finding (the shape the CI
   problem matcher parses), or a JSON object with [--format json], and
   exits non-zero when any finding or parse error is produced.
   Suppressions are accounted per rule family (R vs A vs D) from the
   world's one registry, and stale sites of all three attributes
   ([@lint.allow], [@alloc.allow], [@dom.allow]) — ones that no longer
   cover any would-be finding — are listed so they can be deleted;
   [--strict-suppressions] turns any stale site into a non-zero exit (CI
   runs this).  [--lock-graph FILE] writes the D3 lock-order graph as
   DOT.  Wired to `dune build @lint`; see DESIGN.md "Determinism
   invariants", §9 and §10. *)

module World = Mutps_lint.World
module Lint = Mutps_lint.Lint
module Alloc = Mutps_lint.Alloc
module Dom = Mutps_lint.Dom

let rec collect acc path =
  let base = Filename.basename path in
  if base = "_build" || (String.length base > 0 && base.[0] = '.') then acc
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left (fun acc f -> collect acc (Filename.concat path f)) acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let status_string = function
  | Dom.S_sync what -> "sync:" ^ what
  | Dom.S_frozen -> "frozen"
  | Dom.S_locked l -> "locked:" ^ l
  | Dom.S_flagged -> "flagged"

let plural n = if n = 1 then "" else "s"

let json_allow_sites (sites : World.allow_site list) =
  String.concat ","
    (List.map
       (fun (s : World.allow_site) ->
         Printf.sprintf
           "\n      { \"attr\": \"%s\", \"file\": \"%s\", \"line\": %d, \
            \"uses\": %d, \"payload\": \"%s\" }"
           (json_escape s.as_attr) (json_escape s.as_file) s.as_line
           (World.uses s) (json_escape s.as_payload))
       sites)

let print_json findings ~r_suppressed ~(alloc : Alloc.result) ~alloc_sites
    ~(dom : Dom.result) ~dom_sites ~lint_sites =
  print_string "{\n  \"findings\": [";
  List.iteri
    (fun i (f : World.finding) ->
      Printf.printf "%s\n    { \"file\": \"%s\", \"line\": %d, \"col\": %d, \
                     \"rule\": \"%s\", \"message\": \"%s\" }"
        (if i = 0 then "" else ",")
        (json_escape f.file) f.line f.col (json_escape f.rule)
        (json_escape f.msg))
    findings;
  print_string (if findings = [] then "],\n" else "\n  ],\n");
  let rules = List.sort_uniq compare r_suppressed in
  Printf.printf "  \"suppressed\": { %s },\n"
    (String.concat ", "
       (List.map
          (fun r ->
            Printf.sprintf "\"%s\": %d" (json_escape r)
              (List.length (List.filter (String.equal r) r_suppressed)))
          rules));
  Printf.printf "  \"lint_allow_sites\": [%s],\n" (json_allow_sites lint_sites);
  Printf.printf
    "  \"alloc\": {\n\
    \    \"hot_roots\": [%s],\n\
    \    \"certified\": %d,\n\
    \    \"allow_sites\": [%s]\n\
    \  },\n"
    (String.concat ", "
       (List.map (fun r -> "\"" ^ json_escape r ^ "\"") alloc.Alloc.hot_roots))
    (List.length alloc.Alloc.hot_set)
    (String.concat ","
       (List.map
          (fun (s : World.allow_site) ->
            Printf.sprintf
              "\n      { \"file\": \"%s\", \"line\": %d, \"uses\": %d, \
               \"reason\": \"%s\" }"
              (json_escape s.as_file) s.as_line (World.uses s)
              (json_escape s.as_payload))
          alloc_sites));
  let g = dom.Dom.graph in
  Printf.printf
    "  \"dom\": {\n\
    \    \"globals\": [%s],\n\
    \    \"mutable_types\": %d,\n\
    \    \"lock_nodes\": [%s],\n\
    \    \"lock_edges\": [%s],\n\
    \    \"lock_cycles\": [%s],\n\
    \    \"allow_sites\": [%s]\n\
    \  }\n"
    (String.concat ","
       (List.map
          (fun (gl : Dom.global) ->
            Printf.sprintf
              "\n      { \"key\": \"%s\", \"file\": \"%s\", \"line\": %d, \
               \"what\": \"%s\", \"status\": \"%s\" }"
              (json_escape gl.Dom.g_key) (json_escape gl.Dom.g_file)
              gl.Dom.g_line (json_escape gl.Dom.g_what)
              (json_escape (status_string gl.Dom.g_status)))
          dom.Dom.globals))
    dom.Dom.mutable_types
    (String.concat ", "
       (List.map (fun n -> "\"" ^ json_escape n ^ "\"") (Dom.Lockgraph.nodes g)))
    (String.concat ","
       (List.map
          (fun (src, dst, file, line) ->
            Printf.sprintf
              "\n      { \"src\": \"%s\", \"dst\": \"%s\", \"file\": \
               \"%s\", \"line\": %d }"
              (json_escape src) (json_escape dst) (json_escape file) line)
          (Dom.Lockgraph.edges g)))
    (String.concat ", "
       (List.map
          (fun cyc ->
            "["
            ^ String.concat ", "
                (List.map (fun n -> "\"" ^ json_escape n ^ "\"") cyc)
            ^ "]")
          (Dom.Lockgraph.cycles g)))
    (json_allow_sites dom_sites);
  print_string "}\n"

let () =
  let format = ref `Text
  and strict_suppressions = ref false
  and lock_graph = ref None in
  let roots =
    let rec parse acc = function
      | "--format" :: "json" :: rest ->
        format := `Json;
        parse acc rest
      | "--format" :: "text" :: rest ->
        format := `Text;
        parse acc rest
      | "--format" :: _ ->
        prerr_endline "mutps_lint: --format expects 'text' or 'json'";
        exit 2
      | "--strict-suppressions" :: rest ->
        strict_suppressions := true;
        parse acc rest
      | "--lock-graph" :: file :: rest when file <> "" && file.[0] <> '-' ->
        lock_graph := Some file;
        parse acc rest
      | "--lock-graph" :: _ ->
        prerr_endline "mutps_lint: --lock-graph expects an output FILE";
        exit 2
      | r :: rest -> parse (r :: acc) rest
      | [] -> List.rev acc
    in
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> [ "lib"; "bin"; "bench"; "examples" ]
    | roots -> roots
  in
  let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
  List.iter (Printf.eprintf "mutps_lint: no such path %s\n%!") missing;
  let files =
    List.fold_left collect [] (List.filter Sys.file_exists roots)
    |> List.sort compare
  in
  let errors = ref (List.length missing) in
  let world =
    World.make
      (List.filter_map
         (fun f ->
           match World.parse_implementation f with
           | str -> Some (f, f, str)
           | exception Syntaxerr.Error _ ->
             incr errors;
             Printf.eprintf "mutps_lint: %s: syntax error\n%!" f;
             None
           | exception Sys_error m ->
             incr errors;
             Printf.eprintf "mutps_lint: %s\n%!" m;
             None)
         files)
  in
  let r = Lint.check_project world in
  let alloc = Alloc.check_project world in
  let dom = Dom.check_project world in
  Option.iter
    (fun file ->
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Dom.Lockgraph.to_dot dom.Dom.graph)))
    !lock_graph;
  let findings =
    List.sort World.compare_finding (r @ alloc.Alloc.findings @ dom.Dom.findings)
  in
  (* suppression accounting: every site of the world's registry, by
     attribute *)
  let sites attrs = World.allow_sites world.registry attrs in
  let lint_sites = sites [ "lint.allow"; "dom.allow" ]
  and alloc_sites = sites [ "alloc.allow" ]
  and dom_sites = sites [ "dom.allow" ] in
  let absorbed sites = List.concat_map (fun (s : World.allow_site) -> s.as_rules) sites in
  let r_suppressed = absorbed (sites [ "lint.allow" ]) in
  (match !format with
  | `Json ->
    print_json findings ~r_suppressed ~alloc ~alloc_sites ~dom ~dom_sites
      ~lint_sites
  | `Text -> List.iter (fun f -> print_endline (World.finding_to_string f)) findings);
  (* per-family suppression summary and stale-site report, on stderr so it
     shows in CI logs without disturbing the parseable stdout *)
  let r_total = List.length r_suppressed
  and a_used = List.length (absorbed alloc_sites)
  and a_sites = List.length alloc_sites
  and d_total = List.length (absorbed dom_sites)
  and d_sites = List.length dom_sites in
  if r_total > 0 || a_sites > 0 || d_sites > 0 then
    Printf.eprintf
      "mutps_lint: suppressions: R-family %d ([@lint.allow]), A-family %d \
       finding%s across %d [@alloc.allow] site%s, D-family %d finding%s \
       across %d [@dom.allow] site%s\n"
      r_total a_used (plural a_used) a_sites (plural a_sites) d_total
      (plural d_total) d_sites (plural d_sites);
  let stale =
    List.filter (fun s -> World.uses s = 0) (lint_sites @ alloc_sites)
  in
  List.iter
    (fun (s : World.allow_site) ->
      Printf.eprintf
        "mutps_lint: stale [@%s] at %s:%d (%S) — covers no finding, delete \
         it\n"
        s.as_attr s.as_file s.as_line s.as_payload)
    stale;
  let n_stale = List.length stale in
  if !strict_suppressions && n_stale > 0 then begin
    Printf.eprintf
      "mutps_lint: --strict-suppressions: %d stale suppression site%s\n"
      n_stale (plural n_stale);
    exit 1
  end;
  let n = List.length findings in
  if n > 0 || !errors > 0 then begin
    Printf.eprintf "mutps_lint: %d finding%s, %d error%s in %d files\n" n
      (plural n) !errors (plural !errors) (List.length files);
    exit 1
  end
  else if !format = `Text then begin
    Printf.printf
      "mutps_lint: clean (%d files, rules R1-R4 + interprocedural)\n"
      (List.length files);
    let roots = List.length alloc.Alloc.hot_roots
    and certified = List.length alloc.Alloc.hot_set in
    Printf.printf
      "mutps_alloc: %d hot root%s, %d function%s certified zero-alloc, %d \
       [@alloc.allow] suppression%s\n"
      roots (plural roots) certified (plural certified) a_sites (plural a_sites);
    let g = dom.Dom.graph in
    let globals = List.length dom.Dom.globals
    and flagged =
      List.length
        (List.filter
           (fun (g : Dom.global) -> g.Dom.g_status = Dom.S_flagged)
           dom.Dom.globals)
    and locks = List.length (Dom.Lockgraph.nodes g)
    and cycles = List.length (Dom.Lockgraph.cycles g) in
    Printf.printf
      "mutps_dom: %d module-level mutable/sync binding%s certified (%d \
       flagged), %d lock%s, %d lock-order cycle%s, %d [@dom.allow] \
       suppression%s\n"
      globals (plural globals) flagged locks (plural locks) cycles
      (plural cycles) d_sites (plural d_sites)
  end
