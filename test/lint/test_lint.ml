(* Tests for the determinism & charge-discipline lint (lib/lint) and the
   determinism regression the lint exists to protect: two runs with the
   same seed must produce byte-identical stats digests, with the runtime
   [debug_checks] verifier enabled. *)

module World = Mutps_lint.World
module Lint = Mutps_lint.Lint
module Alloc = Mutps_lint.Alloc
module Dom = Mutps_lint.Dom
module Engine = Mutps_sim.Engine
open Mutps_experiments

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* dune runtest runs us inside test/lint; dune exec from the workspace
   root — accept either *)
let fixture_dir =
  if Sys.file_exists "fixtures" then "fixtures" else "test/lint/fixtures"

let findings ?rule_path file =
  match Lint.check_file ?rule_path (Filename.concat fixture_dir file) with
  | Ok fs -> fs
  | Error msg -> Alcotest.fail msg

let count rule fs =
  List.length (List.filter (fun (f : World.finding) -> f.World.rule = rule) fs)

(* --- fixture checks: each rule must fire on its bad file and stay silent
   on its good twin --- *)

let test_r1_bad () =
  let fs = findings "bad_r1.ml" in
  check_int "R1 findings" 6 (count "R1" fs);
  check_int "only R1" 6 (List.length fs)

let test_r1_good () = check_int "clean" 0 (List.length (findings "good_r1.ml"))

let test_r2_bad () =
  let fs = findings "bad_r2.ml" in
  check_int "R2 findings" 3 (count "R2" fs);
  check_int "only R2" 3 (List.length fs)

let test_r2_good () = check_int "clean" 0 (List.length (findings "good_r2.ml"))

let test_r2_mem_exempt () =
  (* the same traffic is legal when the file lives under lib/mem *)
  let fs = findings ~rule_path:"lib/mem/hierarchy_helper.ml" "bad_r2.ml" in
  check_int "exempt under lib/mem" 0 (List.length fs)

let test_r3_bad () =
  let fs = findings "bad_r3.ml" in
  check_int "R3 findings" 3 (count "R3" fs);
  check_int "only R3" 3 (List.length fs)

let test_r3_good () = check_int "clean" 0 (List.length (findings "good_r3.ml"))

let test_r4_bad () =
  let fs = findings "bad_r4.ml" in
  check_int "R4 findings" 4 (count "R4" fs);
  check_int "only R4" 4 (List.length fs)

let test_r4_good () = check_int "clean" 0 (List.length (findings "good_r4.ml"))

let test_file_suppression () =
  (* [@@@lint.allow "R1"] silences R1 for the file but not other rules *)
  let fs = findings "suppressed.ml" in
  check_int "R1 suppressed" 0 (count "R1" fs);
  check_int "R4 still fires" 1 (count "R4" fs)

let test_finding_format () =
  match findings "bad_r2.ml" with
  | f :: _ ->
    let s = World.finding_to_string f in
    let prefix = Filename.concat fixture_dir "bad_r2.ml" ^ ":" in
    Alcotest.(check bool)
      "file:line: [RULE] shape" true
      (String.length s > String.length prefix
      && String.sub s 0 (String.length prefix) = prefix
      && count "R2" [ f ] = 1)
  | [] -> Alcotest.fail "expected findings"

let test_check_string () =
  match Lint.check_string "let t = Sys.time ()" with
  | Ok fs -> check_int "inline source" 1 (count "R1" fs)
  | Error m -> Alcotest.fail m

(* --- interprocedural pass (project mode) --- *)

(* parse inline sources into a world and run the R family over it *)
let world_of_strings sources =
  World.make
    (List.map
       (fun (file, src) ->
         let lexbuf = Lexing.from_string src in
         Lexing.set_filename lexbuf file;
         (file, file, Parse.implementation lexbuf))
       sources)

let project sources = Lint.check_project (world_of_strings sources)

let test_interp_r3_proven () =
  (* an undominated read is fine when every call site is commit-dominated,
     even across files *)
  let fs =
    project
      [
        ( "lib/a/helper.ml",
          "type t = { mutable version : int }\nlet peek t = t.version" );
        ( "lib/a/caller.ml",
          "let use env t = Env.commit env; ignore (Helper.peek t)" );
      ]
  in
  check_int "proven clean" 0 (List.length fs)

let test_interp_r3_exposed () =
  (* one undominated call site from an entry point exposes the helper *)
  let fs =
    project
      [
        ( "lib/a/helper.ml",
          "type t = { mutable version : int }\nlet peek t = t.version" );
        ( "lib/a/caller.ml",
          "let use env t = Env.commit env; ignore (Helper.peek t)\n\
           let leak t = ignore (Helper.peek t)" );
      ]
  in
  check_int "exposed read flagged" 1 (count "R3" fs)

let test_interp_r3_closure_escape () =
  (* a helper that escapes as a closure can run anywhere: exposed *)
  let fs =
    project
      [
        ( "lib/a/helper.ml",
          "type t = { mutable version : int }\nlet peek t = t.version" );
        ( "lib/a/caller.ml", "let reg tbl = Hashtbl.replace tbl 0 Helper.peek" );
      ]
  in
  check_int "escaping read flagged" 1 (count "R3" fs)

let test_interp_r2_leak () =
  (* calling a helper whose raw Hierarchy access was locally suppressed
     leaks uncharged traffic to the caller *)
  let fs =
    project
      [
        ( "lib/store/raw.ml",
          "let touch hier =\n\
          \  (Hierarchy.load hier ~core:0 ~addr:0 ~size:8) [@lint.allow \
           \"R2\"]\n\
           let wrapper hier = touch hier" );
      ]
  in
  check_int "indirect leak flagged" 1 (count "R2" fs)

let test_interp_r2_env_sanctioned () =
  (* traffic through lib/mem's Env is the sanctioned path: no findings *)
  let fs =
    project
      [
        ( "lib/mem/env.ml",
          "let load t ~addr ~size = Hierarchy.load t.hier ~core:0 ~addr ~size"
        );
        ("lib/store/user.ml", "let fine env = Env.load env ~addr:0 ~size:8");
      ]
  in
  check_int "Env path clean" 0 (List.length fs)

(* one resolver for all three families: when two files define the same
   module, a qualified call into it is unresolved everywhere.  The
   one-definition world is the control that shows each probe fires. *)
let test_shared_resolver_ambiguity () =
  let util =
    "let f hier =\n\
    \  ignore ((Hierarchy.load hier ~core:0 ~addr:0 ~size:8) [@lint.allow \
     \"R2\"]);\n\
    \  Effect.perform Tick"
  in
  let main =
    "let[@hot] use hier = Util.f hier\n\
     let run hier = Domain.spawn (fun () -> Util.f hier)"
  in
  let probe sources =
    let w = world_of_strings sources in
    let a = Alloc.check_project w in
    ( count "R2" (Lint.check_project w),
      List.mem "Util.f" a.Alloc.hot_set,
      count "D4" (Dom.check_project w).Dom.findings )
  in
  let r2, hot, d4 = probe [ ("lib/a/util.ml", util); ("lib/c/main.ml", main) ] in
  check_int "control: R2 leak through Util.f" 2 r2;
  Alcotest.(check bool) "control: Util.f is hot" true hot;
  check_int "control: D4 through Util.f" 1 d4;
  let r2, hot, d4 =
    probe
      [ ("lib/a/util.ml", util); ("lib/b/util.ml", util); ("lib/c/main.ml", main) ]
  in
  check_int "R: Util.f unresolved" 0 r2;
  Alcotest.(check bool) "A: Util.f unresolved" false hot;
  check_int "D: Util.f unresolved" 0 d4

(* --- zero-allocation certifier (rule family A) --- *)

let fixture_world files =
  World.make
    (List.map
       (fun file ->
         let path = Filename.concat fixture_dir file in
         (path, path, World.parse_implementation path))
       files)

let alloc_check files = Alloc.check_project (fixture_world files)

let test_alloc_closure_tuple () =
  let r = alloc_check [ "alloc_bad_closure.ml" ] in
  check_int "closure + tuple flagged" 2 (count "A1" r.Alloc.findings);
  check_int "only A1" 2 (List.length r.Alloc.findings)

let test_alloc_float_boxing () =
  let r = alloc_check [ "alloc_bad_float.ml" ] in
  check_int "float op + poly compare flagged" 2 (count "A2" r.Alloc.findings);
  check_int "only A2" 2 (List.length r.Alloc.findings)

let test_alloc_ref_in_loop () =
  let r = alloc_check [ "alloc_bad_ref.ml" ] in
  check_int "ref cell flagged" 1 (count "A1" r.Alloc.findings);
  check_int "Printf escape flagged" 1 (count "A3" r.Alloc.findings);
  check_int "nothing else" 2 (List.length r.Alloc.findings)

let test_alloc_allow_accounting () =
  (* the growth-branch allow absorbs its finding; the second attribute
     covers nothing and must read as stale (no uses) *)
  let w = fixture_world [ "alloc_allow.ml" ] in
  let r = Alloc.check_project w in
  let sites = World.allow_sites w.registry [ "alloc.allow" ] in
  check_int "suppressed clean" 0 (List.length r.Alloc.findings);
  check_int "both allow sites recorded" 2 (List.length sites);
  let used, stale = List.partition (fun s -> World.uses s > 0) sites in
  check_int "one live site" 1 (List.length used);
  check_int "one stale site" 1 (List.length stale)

let test_alloc_indirect () =
  (* the allocation lives in a callee; reachability must pull it into the
     hot set and attribute the finding to the [@hot] root *)
  let r = alloc_check [ "alloc_indirect.ml" ] in
  check_int "callee tuple flagged" 1 (count "A1" r.Alloc.findings);
  check_int "one [@hot] root" 1 (List.length r.Alloc.hot_roots);
  check_int "root + callee certified targets" 2 (List.length r.Alloc.hot_set);
  match r.Alloc.findings with
  | [ f ] ->
    Alcotest.(check bool)
      "provenance names the root" true
      (let msg = f.World.msg in
       let needle = "reachable from" in
       let n = String.length needle and m = String.length msg in
       let rec scan i = i + n <= m && (String.sub msg i n = needle || scan (i + 1)) in
       scan 0)
  | _ -> Alcotest.fail "expected exactly one finding"

let test_alloc_good () =
  (* tail-recursive helper, diverging invalid_arg, trace-guard Some branch:
     all exempt shapes, zero findings *)
  let r = alloc_check [ "alloc_good.ml" ] in
  check_int "clean" 0 (List.length r.Alloc.findings);
  check_int "two roots" 2 (List.length r.Alloc.hot_roots);
  check_int "helper reached" 3 (List.length r.Alloc.hot_set)

(* regression: the real annotated hot set (everything under lib/) must
   certify with zero findings and no stale suppressions.  dune copies the
   sources into _build, so ../../lib is visible from test/lint; skip
   gracefully if a sandboxed runner hides it (CI's `dune build @lint`
   covers the same ground). *)
let rec collect_ml acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left (fun acc f -> collect_ml acc (Filename.concat path f)) acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let test_alloc_hot_tree_certified () =
  let lib =
    if Sys.file_exists "../../lib" then Some "../../lib"
    else if Sys.file_exists "lib" then Some "lib"
    else None
  in
  match lib with
  | None -> ()
  | Some lib ->
    let files = List.sort compare (collect_ml [] lib) in
    let w =
      World.make (List.map (fun f -> (f, f, World.parse_implementation f)) files)
    in
    let r = Alloc.check_project w in
    let sites = World.allow_sites w.registry [ "alloc.allow" ] in
    List.iter
      (fun (f : World.finding) -> print_endline (World.finding_to_string f))
      r.Alloc.findings;
    check_int "annotated hot set certifies zero-alloc" 0
      (List.length r.Alloc.findings);
    Alcotest.(check bool)
      "all hot roots discovered" true
      (List.length r.Alloc.hot_roots >= 20);
    Alcotest.(check bool)
      "at most 3 [@alloc.allow] suppressions" true
      (List.length sites <= 3);
    List.iter
      (fun (s : World.allow_site) ->
        Alcotest.(check bool)
          (Printf.sprintf "allow at %s:%d is live" s.as_file s.as_line)
          true (World.uses s > 0))
      sites

let test_syntax_error () =
  match Lint.check_string "let let let" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ()

(* --- domain-safety certifier (rule family D) --- *)

module San = Mutps_san.San

let dom_check files = Dom.check_project (fixture_world files)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec scan i = i + n <= m && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let global_status r key =
  match
    List.find_opt (fun (g : Dom.global) -> g.Dom.g_key = key) r.Dom.globals
  with
  | Some g -> g.Dom.g_status
  | None -> Alcotest.fail ("no global " ^ key)

let test_dom_racy_global () =
  let r = dom_check [ "dom_racy_global.ml" ] in
  check_int "every unprotected access flagged" 4
    (count "D1" r.Dom.findings);
  check_int "only D1" 4 (List.length r.Dom.findings);
  Alcotest.(check bool)
    "cache flagged" true
    (global_status r "Dom_racy_global.cache" = Dom.S_flagged);
  Alcotest.(check bool)
    "hits flagged" true
    (global_status r "Dom_racy_global.hits" = Dom.S_flagged)

let test_dom_dls_ok () =
  let r = dom_check [ "dom_dls_ok.ml" ] in
  check_int "clean" 0 (List.length r.Dom.findings);
  Alcotest.(check bool)
    "slot is a sync value" true
    (match global_status r "Dom_dls_ok.slot" with
    | Dom.S_sync _ -> true
    | _ -> false)

let test_dom_mutex_ok () =
  (* both the sequential lock/unlock shape and Fun.protect ~finally must
     certify; the unlock inside the finally closure is scoped and must
     not strip the lock from the protected body *)
  let r = dom_check [ "dom_mutex_ok.ml" ] in
  check_int "clean" 0 (List.length r.Dom.findings);
  Alcotest.(check bool)
    "table certified lock-protected" true
    (match global_status r "Dom_mutex_ok.table" with
    | Dom.S_locked l -> contains l "lock"
    | _ -> false)

let test_dom_spawn_escape () =
  let r = dom_check [ "dom_spawn_escape.ml" ] in
  Alcotest.(check bool)
    "unlocked spawn captures flagged" true
    (count "D2" r.Dom.findings > 0);
  check_int "only D2" (count "D2" r.Dom.findings)
    (List.length r.Dom.findings);
  (* every finding names the racy function, none the locked twin *)
  List.iter
    (fun (f : World.finding) ->
      Alcotest.(check bool) "names racy" true (contains f.World.msg ".racy"))
    r.Dom.findings

let test_dom_lock_cycle () =
  let r = dom_check [ "dom_lock_cycle.ml" ] in
  check_int "one deadlock cycle" 1 (count "D3" r.Dom.findings);
  check_int "only D3" 1 (List.length r.Dom.findings);
  Alcotest.(check (list (list string)))
    "a <-> b cycle"
    [ [ "Dom_lock_cycle.a"; "Dom_lock_cycle.b" ] ]
    (Dom.Lockgraph.cycles r.Dom.graph);
  check_int "both orders recorded as edges" 2
    (List.length (Dom.Lockgraph.edges r.Dom.graph))

let test_dom_effect_cross () =
  let r = dom_check [ "dom_effect_cross.ml" ] in
  check_int "direct + indirect cross-domain performs" 2
    (count "D4" r.Dom.findings);
  check_int "handled twin clean" 2 (List.length r.Dom.findings)

let test_dom_allow_accounting () =
  let w = fixture_world [ "dom_allow.ml" ] in
  let r = Dom.check_project w in
  let sites = World.allow_sites w.registry [ "dom.allow" ] in
  check_int "suppressed clean" 0 (List.length r.Dom.findings);
  check_int "one finding absorbed" 1
    (List.fold_left (fun n s -> n + World.uses s) 0 sites);
  check_int "both allow sites recorded" 2 (List.length sites);
  let used, stale = List.partition (fun s -> World.uses s > 0) sites in
  check_int "one live site" 1 (List.length used);
  check_int "one stale site" 1 (List.length stale)

(* QCheck law: Tarjan-based cycle detection in Lockgraph agrees with a
   Kahn's-algorithm reference (repeatedly strip zero-in-degree nodes;
   anything left is cyclic) on random edge lists over a small node
   universe — self-loops and dense graphs included. *)
let lockgraph_cycle_law =
  QCheck.Test.make ~name:"Lockgraph.cycles agrees with Kahn reference"
    ~count:500
    QCheck.(list (pair (int_bound 7) (int_bound 7)))
    (fun raw ->
      let g = Dom.Lockgraph.create () in
      List.iter
        (fun (a, b) ->
          Dom.Lockgraph.add_edge g ~src:(string_of_int a)
            ~dst:(string_of_int b) ~file:"t" ~line:1)
        raw;
      let tarjan_cyclic = Dom.Lockgraph.cycles g <> [] in
      let nodes = Dom.Lockgraph.nodes g in
      let edges =
        List.sort_uniq compare
          (List.map (fun (a, b) -> (string_of_int a, string_of_int b)) raw)
      in
      let alive = Hashtbl.create 16 in
      List.iter (fun n -> Hashtbl.replace alive n ()) nodes;
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun n ->
            if
              Hashtbl.mem alive n
              && not
                   (List.exists
                      (fun (s, d) -> d = n && Hashtbl.mem alive s)
                      edges)
            then begin
              Hashtbl.remove alive n;
              changed := true
            end)
          nodes
      done;
      let kahn_cyclic = Hashtbl.length alive > 0 in
      tarjan_cyclic = kahn_cyclic)

(* cross-check against the runtime race sanitizer: every race site the
   sanitizer reports on the deliberately racy module must be covered by
   a static D1/D2 finding naming the same function — the static
   certifier over-approximates the dynamic detector, never the other
   way round.  The module's Env.tagged site names are its own function
   keys, so coverage is a substring check on the finding messages. *)
let test_dom_san_subset () =
  let src =
    List.find_opt Sys.file_exists
      [ "dom_racy_runtime.ml"; "test/lint/dom_racy_runtime.ml" ]
  in
  match src with
  | None -> ()
  | Some src ->
    let reports = Dom_racy_runtime.run () in
    Alcotest.(check bool)
      "sanitizer sees the race" true
      (List.length reports >= 1);
    let r =
      Dom.check_project
        (World.make [ (src, src, World.parse_implementation src) ])
    in
    let msgs = List.map (fun (f : World.finding) -> f.World.msg) r.Dom.findings in
    Alcotest.(check bool)
      "static pass flags the module" true
      (msgs <> []);
    let sites =
      List.concat_map
        (fun (rep : San.report) ->
          (rep.San.second.San.a_site
          :: (match rep.San.first with Some a -> [ a.San.a_site ] | None -> []))
          )
        reports
      |> List.filter (fun s -> s <> "?")
      |> List.sort_uniq compare
    in
    Alcotest.(check bool) "reports carry sites" true (sites <> []);
    List.iter
      (fun site ->
        Alcotest.(check bool)
          (site ^ " covered by a static finding")
          true
          (List.exists (fun m -> contains m site) msgs))
      sites

(* regression twin of [test_alloc_hot_tree_certified]: the real library
   tree must certify domain-safe — zero unsuppressed findings, an
   acyclic lock-order graph, every [@dom.allow] live, at most 5 of
   them. *)
let test_dom_tree_certified () =
  let lib =
    if Sys.file_exists "lib" then Some "lib"
    else if Sys.file_exists "../../lib" then Some "../../lib"
    else None
  in
  match lib with
  | None -> ()
  | Some lib ->
    let files = List.sort compare (collect_ml [] lib) in
    let w =
      World.make (List.map (fun f -> (f, f, World.parse_implementation f)) files)
    in
    let r = Dom.check_project w in
    let sites = World.allow_sites w.registry [ "dom.allow" ] in
    List.iter
      (fun (f : World.finding) -> print_endline (World.finding_to_string f))
      r.Dom.findings;
    check_int "library tree certifies domain-safe" 0
      (List.length r.Dom.findings);
    Alcotest.(check (list (list string)))
      "lock-order graph acyclic" []
      (Dom.Lockgraph.cycles r.Dom.graph);
    Alcotest.(check bool)
      "module-level mutable state is inventoried" true
      (List.length r.Dom.globals >= 8);
    Alcotest.(check bool)
      "no flagged globals" true
      (List.for_all
         (fun (g : Dom.global) -> g.Dom.g_status <> Dom.S_flagged)
         r.Dom.globals);
    Alcotest.(check bool)
      "at most 5 [@dom.allow] suppressions" true
      (List.length sites <= 5);
    List.iter
      (fun (s : World.allow_site) ->
        Alcotest.(check bool)
          (Printf.sprintf "allow at %s:%d is live" s.as_file s.as_line)
          true (World.uses s > 0))
      sites

(* --- the mutps-lint driver end to end: exit status, finding counts per
   family and the stale-suppression report over the fixture directory --- *)

let lint_exe =
  List.find_opt Sys.file_exists
    [ "../../bin/lint_main.exe"; "_build/default/bin/lint_main.exe" ]

(* run the driver; (exit status, stdout lines, stderr lines) *)
let run_driver args =
  match lint_exe with
  | None -> Alcotest.fail "lint_main.exe not built"
  | Some exe ->
    let out = Filename.temp_file "lint" ".out"
    and err = Filename.temp_file "lint" ".err" in
    let rc =
      Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args)
    in
    let lines f =
      In_channel.with_open_bin f In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
    in
    let r = (rc, lines out, lines err) in
    Sys.remove out;
    Sys.remove err;
    r

let test_driver_fixtures () =
  let rc, out, err = run_driver [ fixture_dir ] in
  check_int "exit 1 on findings" 1 rc;
  let family c =
    List.length (List.filter (fun l -> contains l (": [" ^ c)) out)
  in
  check_int "findings" 35 (List.length out);
  check_int "R findings" 17 (family "R");
  check_int "A findings" 7 (family "A");
  check_int "D findings" 11 (family "D");
  let stale = List.filter (fun l -> contains l "stale [@") err in
  check_int "two stale sites" 2 (List.length stale);
  List.iter2
    (fun site l -> Alcotest.(check bool) site true (contains l site))
    [ "dom_allow.ml:13"; "alloc_allow.ml:11" ]
    stale

let test_driver_strict () =
  (* a one-file world whose only problem is a stale [@alloc.allow] *)
  let src = Filename.temp_file "stale_alloc" ".ml" in
  Out_channel.with_open_bin src (fun oc ->
      output_string oc "let[@hot] f x = (x + 1) [@alloc.allow \"nothing\"]\n");
  let lax, _, _ = run_driver [ src ] in
  let strict, out, err = run_driver [ "--strict-suppressions"; src ] in
  Sys.remove src;
  check_int "clean without --strict-suppressions" 0 lax;
  check_int "exit 1 under --strict-suppressions" 1 strict;
  check_int "no findings" 0 (List.length out);
  check_int "one stale line" 1
    (List.length (List.filter (fun l -> contains l "stale [@alloc.allow]") err))

(* --- determinism regression: a small fig2a-style config (uniform gets),
   run twice with the same seed under debug_checks, must agree to the last
   bit --- *)

let tiny_scale =
  {
    Harness.keyspace = 2_000;
    cores = 4;
    clients = 16;
    window = 2;
    warmup = 200_000;
    measure = 600_000;
    sample = None;
  }

let digest_of (m : Harness.measurement) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%.12g|%.12g|%.12g|%d|%.12g" m.Harness.mops
          m.Harness.p50_us m.Harness.p99_us m.Harness.completed
          m.Harness.cr_hit_rate))

let run_once system =
  let spec =
    Mutps_workload.Ycsb.get_only_uniform ~keyspace:tiny_scale.Harness.keyspace
      ~value_size:64 ()
  in
  let m =
    Harness.measure ~calibrate:false
      ~customize:(fun b -> Engine.set_debug_checks b.Harness.engine true)
      system tiny_scale spec
  in
  Alcotest.(check bool) "made progress" true (m.Harness.completed > 0);
  digest_of m

let test_determinism_basekv () =
  check_string "identical digests (BaseKV)" (run_once Harness.Basekv)
    (run_once Harness.Basekv)

let test_determinism_mutps () =
  check_string "identical digests (uTPS)" (run_once Harness.Mutps)
    (run_once Harness.Mutps)

(* the runtime verifier itself: an uncommitted shared-state read must trip
   Env.assert_committed when debug_checks is on, and pass silently off *)
let test_debug_checks_trip () =
  let engine = Engine.create () in
  Engine.set_debug_checks engine true;
  let hier =
    Mutps_mem.Hierarchy.create
      (Mutps_mem.Hierarchy.small_geometry ~cores:2)
  in
  let tripped = ref false in
  Mutps_sim.Simthread.spawn engine (fun ctx ->
      let env = Mutps_mem.Env.make ~ctx ~hier ~core:0 in
      Mutps_mem.Env.compute env 100;
      (* pending cycles not committed: the verifier must object *)
      match Mutps_mem.Env.assert_committed env "test-site" with
      | () -> ()
      | exception Failure _ -> tripped := true);
  Engine.run_all engine;
  Alcotest.(check bool) "uncommitted read detected" true !tripped;
  (* same read with checks off is silent *)
  let engine2 = Engine.create () in
  Mutps_sim.Simthread.spawn engine2 (fun ctx ->
      let env = Mutps_mem.Env.make ~ctx ~hier ~core:0 in
      Mutps_mem.Env.compute env 100;
      Mutps_mem.Env.assert_committed env "test-site");
  Engine.run_all engine2

let test_parked_accounting () =
  let engine = Engine.create () in
  Engine.set_debug_checks engine true;
  let cv = Mutps_sim.Simthread.Condvar.create () in
  Mutps_sim.Simthread.spawn engine (fun ctx ->
      Mutps_sim.Simthread.Condvar.wait ctx cv);
  Engine.run ~until:10 engine;
  check_int "one thread parked" 1 (Engine.parked engine);
  Mutps_sim.Simthread.Condvar.signal cv;
  Engine.run_all engine;
  check_int "resumed exactly once" 0 (Engine.parked engine)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 bad" `Quick test_r1_bad;
          Alcotest.test_case "R1 good" `Quick test_r1_good;
          Alcotest.test_case "R2 bad" `Quick test_r2_bad;
          Alcotest.test_case "R2 good" `Quick test_r2_good;
          Alcotest.test_case "R2 lib/mem exempt" `Quick test_r2_mem_exempt;
          Alcotest.test_case "R3 bad" `Quick test_r3_bad;
          Alcotest.test_case "R3 good" `Quick test_r3_good;
          Alcotest.test_case "R4 bad" `Quick test_r4_bad;
          Alcotest.test_case "R4 good" `Quick test_r4_good;
          Alcotest.test_case "file suppression" `Quick test_file_suppression;
          Alcotest.test_case "finding format" `Quick test_finding_format;
          Alcotest.test_case "check_string" `Quick test_check_string;
          Alcotest.test_case "syntax error" `Quick test_syntax_error;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "dominated call sites proven" `Quick
            test_interp_r3_proven;
          Alcotest.test_case "exposed call site flagged" `Quick
            test_interp_r3_exposed;
          Alcotest.test_case "closure escape flagged" `Quick
            test_interp_r3_closure_escape;
          Alcotest.test_case "indirect R2 leak flagged" `Quick
            test_interp_r2_leak;
          Alcotest.test_case "Env path sanctioned" `Quick
            test_interp_r2_env_sanctioned;
          Alcotest.test_case "ambiguous module unresolved in R, A and D" `Quick
            test_shared_resolver_ambiguity;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "A1 closure + tuple" `Quick
            test_alloc_closure_tuple;
          Alcotest.test_case "A2 float boxing" `Quick test_alloc_float_boxing;
          Alcotest.test_case "A1 ref + A3 printf" `Quick test_alloc_ref_in_loop;
          Alcotest.test_case "[@alloc.allow] accounting" `Quick
            test_alloc_allow_accounting;
          Alcotest.test_case "indirect allocation via callee" `Quick
            test_alloc_indirect;
          Alcotest.test_case "exempt shapes clean" `Quick test_alloc_good;
          Alcotest.test_case "hot tree certifies" `Quick
            test_alloc_hot_tree_certified;
        ] );
      ( "dom",
        [
          Alcotest.test_case "D1 racy global" `Quick test_dom_racy_global;
          Alcotest.test_case "D1 DLS ok" `Quick test_dom_dls_ok;
          Alcotest.test_case "D1 mutex ok" `Quick test_dom_mutex_ok;
          Alcotest.test_case "D2 spawn escape" `Quick test_dom_spawn_escape;
          Alcotest.test_case "D3 lock cycle" `Quick test_dom_lock_cycle;
          Alcotest.test_case "D4 effect cross-domain" `Quick
            test_dom_effect_cross;
          Alcotest.test_case "[@dom.allow] accounting" `Quick
            test_dom_allow_accounting;
          QCheck_alcotest.to_alcotest lockgraph_cycle_law;
          Alcotest.test_case "san races subset of static" `Quick
            test_dom_san_subset;
          Alcotest.test_case "library tree certifies" `Quick
            test_dom_tree_certified;
        ] );
      ( "driver",
        [
          Alcotest.test_case "fixture directory" `Quick test_driver_fixtures;
          Alcotest.test_case "strict suppressions" `Quick test_driver_strict;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "BaseKV digest" `Slow test_determinism_basekv;
          Alcotest.test_case "uTPS digest" `Slow test_determinism_mutps;
          Alcotest.test_case "debug_checks trips" `Quick test_debug_checks_trip;
          Alcotest.test_case "parked accounting" `Quick test_parked_accounting;
        ] );
    ]
