module T = Lk_analysis.Tokenizer
module F = Lk_analysis.Finding
module Allow = Lk_analysis.Allowlist
module Iter = Lk_analysis.Rule_iteration
module Feq = Lk_analysis.Rule_float_eq
module Mli = Lk_analysis.Rule_mli
module Layer = Lk_analysis.Rule_layering
module Oracle = Lk_analysis.Rule_oracle
module Confine = Lk_analysis.Rule_confine
module Engine = Lk_analysis.Engine
module Mod = Lk_analysis.Modgraph
module Cg = Lk_analysis.Callgraph
module Eff = Lk_analysis.Effects
module Sarif = Lk_analysis.Sarif
module Json = Lk_benchkit.Json

let rules_of findings = List.map (fun f -> f.F.rule) findings

let check_rules msg expected findings =
  Alcotest.(check (list string)) msg expected (rules_of findings)

(* ------------------------------------------------------------------ *)
(* tokenizer *)

let texts tokens = Array.to_list tokens |> List.map (fun t -> t.T.text)

let test_tokenizer_strings_and_comments () =
  let src =
    "let x = \"Random.self_init\" (* Hashtbl.fold (* nested Sys.time *) *) \
     0.5\n\
     let y = {tag|Unix.gettimeofday|tag} 'R'\n"
  in
  let tokens = T.tokenize src in
  let ts = texts tokens in
  Alcotest.(check bool) "string dropped" false (List.mem "Random.self_init" ts);
  Alcotest.(check bool) "comment dropped" false (List.mem "Hashtbl.fold" ts);
  Alcotest.(check bool) "nested comment dropped" false (List.mem "Sys.time" ts);
  Alcotest.(check bool)
    "quoted string dropped" false
    (List.mem "Unix.gettimeofday" ts);
  Alcotest.(check bool) "float literal survives" true (List.mem "0.5" ts);
  check_rules "no findings in strings/comments" []
    (Confine.check ~file:"lib/a/x.ml" tokens)

let test_tokenizer_positions_and_kinds () =
  let tokens = T.tokenize "let a =\n  Lk_util.Rng.create 7L\n" in
  let tok text = Array.to_list tokens |> List.find (fun t -> t.T.text = text) in
  let create = tok "Lk_util.Rng.create" in
  Alcotest.(check int) "line" 2 create.T.line;
  Alcotest.(check int) "col" 3 create.T.col;
  Alcotest.(check bool) "dotted ident" true (create.T.kind = T.Ident);
  Alcotest.(check bool) "int literal" true ((tok "7L").T.kind = T.Int_lit)

let test_tokenizer_float_kinds () =
  let tokens = T.tokenize "0.5 1. 1e-9 3 0x2A" in
  let kinds = Array.to_list tokens |> List.map (fun t -> (t.T.text, t.T.kind)) in
  Alcotest.(check bool) "0.5" true (List.assoc "0.5" kinds = T.Float_lit);
  Alcotest.(check bool) "1." true (List.assoc "1." kinds = T.Float_lit);
  Alcotest.(check bool) "1e-9" true (List.assoc "1e-9" kinds = T.Float_lit);
  Alcotest.(check bool) "3" true (List.assoc "3" kinds = T.Int_lit);
  Alcotest.(check bool) "0x2A" true (List.assoc "0x2A" kinds = T.Int_lit)

(* ------------------------------------------------------------------ *)
(* iteration-order *)

let test_iteration_positive () =
  let tokens =
    T.tokenize "let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\n"
  in
  check_rules "unsorted fold flagged" [ "iteration-order" ]
    (Iter.check ~file:"lib/a/x.ml" tokens)

let test_iteration_negative () =
  let sorted =
    T.tokenize
      "let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> \
       List.sort compare\n"
  in
  check_rules "immediately sorted fold accepted" []
    (Iter.check ~file:"lib/a/x.ml" sorted);
  let wrapper = T.tokenize "let l = Lk_util.Det.sorted_bindings tbl\n" in
  check_rules "Det wrapper accepted" [] (Iter.check ~file:"lib/a/x.ml" wrapper)

(* ------------------------------------------------------------------ *)
(* float-equality *)

let test_float_eq_positive () =
  let tokens =
    T.tokenize "let f w = if w = 0.75 then 1 else 0\nlet g x = x <> 1.\n"
  in
  check_rules "comparisons flagged" [ "float-equality"; "float-equality" ]
    (Feq.check ~file:"lib/a/x.ml" tokens)

let test_float_eq_negative () =
  let tokens =
    T.tokenize
      "let eps = 1e-9\n\
       let p = { tau = 0.25; rho = 0.15 }\n\
       let h ?(scale = 1.) x = x >= 0.5 && scale <= 2.\n"
  in
  check_rules "bindings, fields, defaults, orderings all fine" []
    (Feq.check ~file:"lib/a/x.ml" tokens)

(* ------------------------------------------------------------------ *)
(* mli-coverage *)

let test_mli_coverage () =
  let files =
    [ "lib/a/x.ml"; "lib/a/x.mli"; "lib/a/y.ml"; "lib/a/dune" ]
  in
  let findings = Mli.check ~files in
  check_rules "y.ml uncovered" [ "mli-coverage" ] findings;
  Alcotest.(check string)
    "names the file" "lib/a/y.ml"
    (List.hd findings).F.file

(* ------------------------------------------------------------------ *)
(* layering *)

let test_layering_fixtures () =
  check_rules "legal stanza" []
    (Layer.check_dune ~path:"lib/lca/dune"
       ~content:"(library (name lk_lca) (libraries lk_util lk_oracle fmt))");
  check_rules "illegal workloads dep" [ "layering" ]
    (Layer.check_dune ~path:"lib/lca/dune"
       ~content:"(library (name lk_lca) (libraries lk_util lk_workloads))");
  check_rules "inverted edge" [ "layering" ]
    (Layer.check_dune ~path:"lib/util/dune"
       ~content:"(library (name lk_util) (libraries lk_stats))")

let test_layering_counting_edges () =
  (* lk_counting sits at the oracle layer: it may see lk_oracle and below,
     nothing above, and nobody below may see it back. *)
  check_rules "counting's legal deps" []
    (Layer.check_dune ~path:"lib/counting/dune"
       ~content:
         "(library (name lk_counting) (libraries lk_util lk_knapsack \
          lk_benchkit lk_obs lk_oracle))");
  check_rules "counting must not fan out" [ "layering" ]
    (Layer.check_dune ~path:"lib/counting/dune"
       ~content:"(library (name lk_counting) (libraries lk_util lk_parallel))");
  check_rules "counting must not see workloads" [ "layering" ]
    (Layer.check_dune ~path:"lib/counting/dune"
       ~content:"(library (name lk_counting) (libraries lk_util lk_workloads))");
  check_rules "lower layers must not see counting back" [ "layering" ]
    (Layer.check_dune ~path:"lib/oracle/dune"
       ~content:"(library (name lk_oracle) (libraries lk_util lk_counting))")

let repo_lib_dune_files () =
  (* Tests run in _build/default/test; the lib tree is a declared dep one
     level up. *)
  let root =
    if Sys.file_exists "../lib" then ".." else if Sys.file_exists "lib" then "." else Alcotest.fail "lib/ not found from test cwd"
  in
  Sys.readdir (Filename.concat root "lib")
  |> Array.to_list |> List.sort compare
  |> List.filter_map (fun d ->
         let path = Filename.concat (Filename.concat root "lib") d in
         let dune = Filename.concat path "dune" in
         if Sys.is_directory path && Sys.file_exists dune then
           let ic = open_in_bin dune in
           let content = really_input_string ic (in_channel_length ic) in
           close_in ic;
           Some ("lib/" ^ d ^ "/dune", content)
         else None)

let test_layering_real_tree () =
  let files = repo_lib_dune_files () in
  Alcotest.(check bool)
    "found the real dune files" true
    (List.length files >= 10);
  check_rules "real tree respects the DAG" [] (Layer.check_files files)

(* ------------------------------------------------------------------ *)
(* oracle-discipline *)

let test_oracle_discipline () =
  let bad = T.tokenize "let it = Lk_knapsack.Instance.item inst i\n" in
  check_rules "direct item access flagged" [ "oracle-discipline" ]
    (Oracle.check ~file:"lib/lca/x.ml" bad);
  check_rules "oracle layer itself may touch items" []
    (Oracle.check ~file:"lib/oracle/x.ml" bad);
  let meta = T.tokenize "let n = Instance.size inst\n" in
  check_rules "metadata access is fine" []
    (Oracle.check ~file:"lib/lca/x.ml" meta)

(* ------------------------------------------------------------------ *)
(* confinement rules: determinism and the three *-discipline rules *)

(* (suite, test, [(source, file, expected rule ids)]) *)
let confine_cases =
  let det = "determinism" and par = "parallelism-discipline" in
  let tim = "timing-discipline" and cnt = "counting-discipline" in
  [ ( det, "positive",
      [ ("let () = Random.self_init ()\nlet t = Sys.time ()\n", "lib/a/x.ml",
         [ det; det ]);
        ("let () = Random.self_init ()\n", "bin/x.ml", [ det ]) ] );
    ( det, "negative",
      [ ( "let r = Lk_util.Rng.of_path seed [ \"x\" ]\n\
           let s = Sys.file_exists p\n",
          "lib/a/x.ml", [] );
        ( "let t = Sys.time_foo ()\nlet h = Hashtbl.hash_param 10 100 x\n",
          "lib/a/x.ml", [] ) ] );
    ( par, "positive",
      [ ( "let d = Domain.spawn f\n\
           let c = Atomic.make 0\n\
           let m = Stdlib.Mutex.create ()\n",
          "lib/lca/x.ml", [ par; par; par ] );
        ("let d = Domain.spawn f\n", "bin/experiments.ml", [ par ]) ] );
    ( par, "negative",
      [ ( "let d = Domain.spawn f\nlet c = Atomic.make 0\n",
          "lib/parallel/engine.ml", [] );
        ( "let s = Lk_repro.Domain.size d\n\
           let r = Lk_parallel.Engine.run ~jobs ~base ~trials f\n\
           let w = domain_width\n",
          "lib/lca/x.ml", [] ) ] );
    ( tim, "positive",
      [ ( "let t0 = Monotonic_clock.now ()\n\
           let m = Mtime.Span.to_uint64_ns s\n\
           let cfg = Bechamel.Benchmark.cfg ()\n",
          "lib/lca/x.ml", [ tim; tim; tim ] );
        ("let t0 = Monotonic_clock.now ()\n", "bin/experiments.ml", [ tim ]) ]
    );
    ( tim, "negative",
      [ ("let t0 = Monotonic_clock.now ()\n", "lib/benchkit/stopwatch.ml", []);
        ( "let sw = Lk_benchkit.Stopwatch.start ()\n\
           let ns = Lk_benchkit.Stopwatch.elapsed_ns sw\n\
           let b = monotonic_clock_like\n",
          "bin/experiments.ml", [] ) ] );
    ( cnt, "positive",
      [ ( "let r = Lk_counting.Robp.of_weights w ~capacity:9\n\
           let z = Lk_counting.State_dp.count r\n\
           let s = Lk_counting.Count_scratch.create ()\n",
          "lib/lca/x.ml", [ cnt; cnt; cnt ] );
        ( "let w = Lk_counting.Robp.weight robp 3\n", "bin/experiments.ml",
          [ cnt ] ) ] );
    ( cnt, "negative",
      [ ("let r = Lk_counting.Robp.build oracle\n", "lib/counting/gkm.ml", []);
        ( "let z = Lk_counting.Exact.count oracle\n\
           let g = Lk_counting.Gkm.count ~eps oracle\n\
           let s = Lk_counting.Svv.count ~eps oracle\n\
           let m = Lk_counting.Sampler.of_oracle oracle\n\
           let x = robp_like\n",
          "bin/experiments.ml", [] ) ] ) ]

let confine_suite suite =
  List.filter_map
    (fun (s, name, cases) ->
      if s <> suite then None
      else
        Some
          (Alcotest.test_case name `Quick (fun () ->
               List.iter
                 (fun (src, file, expected) ->
                   check_rules (Printf.sprintf "%s: %S" file src) expected
                     (Confine.check ~file (T.tokenize src)))
                 cases)))
    confine_cases

let test_confine_pinned_messages () =
  List.iter
    (fun (file, src, expected) ->
      Alcotest.(check (list string))
        src [ expected ]
        (List.map F.to_string (Confine.check ~file (T.tokenize src))))
    [ ( "lib/a/x.ml", "let n = Stdlib.Random.int 3\n",
        "lib/a/x.ml:1:9: error: determinism: 'Stdlib.Random.int' is banned \
         (the Random module is ambient, unseeded state); derive all \
         randomness from the shared seed via Lk_util.Rng (of_path/split)" );
      ( "bin/x.ml", "let d = Domain.spawn f\n",
        "bin/x.ml:1:9: error: parallelism-discipline: 'Domain.spawn' uses a \
         shared-memory parallelism primitive outside lib/parallel; run \
         trials through Lk_parallel.Engine (or allowlist with a \
         justification)" );
      ( "lib/a/x.ml", "let t = Mtime.now ()\n",
        "lib/a/x.ml:1:9: error: timing-discipline: 'Mtime.now' reads a clock \
         outside lib/benchkit; time through Lk_benchkit.Stopwatch \
         (observational only) or move the measurement into bench/" );
      ( "lib/a/x.ml", "let s = Lk_counting.Count_scratch.create ()\n",
        "lib/a/x.ml:1:9: error: counting-discipline: \
         'Lk_counting.Count_scratch.create' reaches into the counting \
         kernels' flat workspaces outside lib/counting; the facades own \
         their scratch lifetimes" ) ]

let test_confine_ids_registered () =
  (* lint.allow validates rule ids against Engine.rules: a table row
     whose id the registry lacks could never be allowlisted *)
  let known = List.map fst Engine.rules in
  List.iter
    (fun (r : Confine.row) ->
      check_rules ("lint.allow accepts " ^ r.Confine.rule) []
        (Allow.errors
           (Allow.parse ~known (r.Confine.rule ^ " lib/a/x.ml # vetted\n"))))
    Confine.rows

(* ------------------------------------------------------------------ *)
(* allowlist *)

let test_allowlist_round_trip () =
  let t =
    Allow.parse
      "# header comment\n\
       float-equality lib/a/x.ml # exact constant\n\
       iteration-order lib/b/y.ml:12 # vetted wrapper\n"
  in
  Alcotest.(check int) "two entries" 2 (List.length (Allow.entries t));
  check_rules "no parse errors" [] (Allow.errors t);
  Alcotest.(check bool) "file-level match" true
    (Allow.is_allowed t ~rule:"float-equality" ~file:"lib/a/x.ml" ~line:99);
  Alcotest.(check bool) "line-level match" true
    (Allow.is_allowed t ~rule:"iteration-order" ~file:"lib/b/y.ml" ~line:12);
  Alcotest.(check bool) "wrong line rejected" false
    (Allow.is_allowed t ~rule:"iteration-order" ~file:"lib/b/y.ml" ~line:13);
  Alcotest.(check bool) "wrong rule rejected" false
    (Allow.is_allowed t ~rule:"determinism" ~file:"lib/a/x.ml" ~line:1);
  check_rules "no stale entries after both matched" [] (Allow.stale t)

let test_allowlist_requires_justification () =
  let t = Allow.parse "float-equality lib/a/x.ml\n" in
  Alcotest.(check int) "entry rejected" 0 (List.length (Allow.entries t));
  check_rules "missing justification is an error" [ "allowlist" ]
    (Allow.errors t)

let test_allowlist_stale_and_unknown () =
  (* a typo'd rule id is rejected at load time: it becomes an error and
     allowlists nothing, instead of silently matching nothing *)
  let known = List.map fst Engine.rules in
  let t = Allow.parse ~known "no-such-rule lib/a/x.ml # why\n" in
  Alcotest.(check int) "unknown-rule entry dropped" 0
    (List.length (Allow.entries t));
  let errs = Allow.errors t in
  check_rules "unknown rule id is an error" [ "allowlist" ] errs;
  Alcotest.(check bool) "rejected at load = error severity" true
    (F.is_error (List.hd errs));
  (* without a registry the entry parses, and an unused entry is stale *)
  let t = Allow.parse "no-such-rule lib/a/x.ml # why\n" in
  let stale = Allow.stale t in
  check_rules "unused entry is stale" [ "allowlist" ] stale;
  Alcotest.(check bool) "stale is a warning" false (F.is_error (List.hd stale))

(* ------------------------------------------------------------------ *)
(* engine end-to-end on a fixture tree *)

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let test_engine_fixture_tree () =
  let root = Filename.temp_dir "lk_analysis" "fixture" in
  let dir = Filename.concat root "lib/demo" in
  ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote dir)));
  write_file
    (Filename.concat dir "dune")
    "(library (name lk_lca) (libraries lk_util lk_workloads))";
  write_file
    (Filename.concat dir "bad.ml")
    "let () = Random.self_init ()\n\
     let l tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\n";
  write_file (Filename.concat dir "bad.mli") "val l : (int, int) Hashtbl.t -> (int * int) list\n";
  let findings = (Engine.analyze ~root ()).Engine.findings in
  let errors = List.filter F.is_error findings in
  check_rules "fixture violations surface, sorted"
    [ "determinism"; "iteration-order"; "layering" ]
    errors;
  (* allowlisting the fold site silences exactly that finding *)
  write_file
    (Filename.concat root "lint.allow")
    "iteration-order lib/demo/bad.ml # fixture: vetted on purpose\n";
  let findings = (Engine.analyze ~root ()).Engine.findings in
  check_rules "allowlisted finding dropped, no stale warnings"
    [ "determinism"; "layering" ]
    (List.filter F.is_error findings);
  Alcotest.(check int) "no warnings left" 0
    (List.length (List.filter (fun f -> not (F.is_error f)) findings))

let test_engine_real_tree () =
  let root =
    if Sys.file_exists "../lib" then ".." else if Sys.file_exists "lib" then "." else Alcotest.fail "lib/ not found from test cwd"
  in
  let report = Engine.analyze ~root () in
  Alcotest.(check bool) "scanned a real tree" true
    (report.Engine.files_checked > 50);
  check_rules "repo at HEAD is lint-clean" []
    (List.filter F.is_error report.Engine.findings)

(* ------------------------------------------------------------------ *)
(* shared helpers for the whole-program tests *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_all path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let with_fixture files f =
  let root = Filename.temp_dir "lk_analysis" "efixture" in
  List.iter
    (fun (rel, content) ->
      let path = Filename.concat root rel in
      ignore
        (Sys.command
           (Printf.sprintf "mkdir -p %s"
              (Filename.quote (Filename.dirname path))));
      write_file path content)
    files;
  f root

let findings_with_rule r (report : Engine.report) =
  List.filter (fun f -> f.F.rule = r) report.Engine.findings

let total_findings (report : Engine.report) =
  List.length report.Engine.findings

let real_root () =
  if Sys.file_exists "../lib" then ".."
  else if Sys.file_exists "lib" then "."
  else Alcotest.fail "lib/ not found from test cwd"

(* a layering-clean pure library so every fixture tree has a lib/ *)
let pure_lib =
  [ ("lib/util/dune", "(library (name lk_util))");
    ("lib/util/misc.ml", "let twice x = 2 * x\n");
    ("lib/util/misc.mli", "val twice : int -> int\n") ]

let test_engine_char_literal_in_comment () =
  with_fixture
    (pure_lib
    @ [ ( "lib/util/m.ml",
          "(* a quote char: '\"' *)\nlet a () = Random.int 3\n" );
        ("lib/util/m.mli", "val a : unit -> int\n") ])
    (fun root ->
      let findings = (Engine.analyze ~root ()).Engine.findings in
      check_rules "the hit after the comment is found" [ "determinism" ]
        findings;
      Alcotest.(check int) "on line 2" 2 (List.hd findings).F.line)

(* ------------------------------------------------------------------ *)
(* tokenizer edge cases *)

let test_tokenizer_quoted_edge_cases () =
  let ts =
    texts
      (T.tokenize
         "let x = {|Unix.gettimeofday|} ^ {||}\nlet y = Sys.opaque_identity x\n")
  in
  Alcotest.(check bool) "empty-tag quoted string dropped" false
    (List.mem "Unix.gettimeofday" ts);
  Alcotest.(check bool) "lexing continues after quoted strings" true
    (List.mem "Sys.opaque_identity" ts);
  let ts = texts (T.tokenize "let c = '\"'\nlet z = Sys.time ()\n") in
  Alcotest.(check bool) "'\"' char literal does not open a string" true
    (List.mem "Sys.time" ts);
  let ts =
    texts
      (T.tokenize
         "(* a (* b (* Random.int *) c *) d *) let ok = Hashtbl.hash 0\n")
  in
  Alcotest.(check bool) "doubly nested comment dropped" false
    (List.mem "Random.int" ts);
  Alcotest.(check bool) "code after nested comment survives" true
    (List.mem "Hashtbl.hash" ts)

let test_tokenizer_char_literal_in_comment () =
  (* OCaml lexes char literals inside comments: the quote in '"' opens no
     string, so the code after the comment is still seen *)
  let ts = texts (T.tokenize "(* a quote char: '\"' *)\nlet a () = Random.int 3\n") in
  Alcotest.(check bool) "code after '\"' in a comment survives" true
    (List.mem "Random.int" ts);
  let ts = texts (T.tokenize "(* '\\\"' and 'x' *) let b = Sys.time ()\n") in
  Alcotest.(check bool) "escaped and plain char literals skipped" true
    (List.mem "Sys.time" ts);
  (* apostrophes that start no char literal must not swallow the close *)
  let ts = texts (T.tokenize "(* it's '\\'*) let c = Unix.time ()\n") in
  Alcotest.(check bool) "apostrophes leave the comment close alone" true
    (List.mem "Unix.time" ts)

(* ------------------------------------------------------------------ *)
(* module summaries and call-graph resolution *)

let test_modgraph_extraction () =
  let src =
    "open Lk_util\n\
     module R = Lk_util.Rng\n\
     let plain x = x + 1\n\
     let[@hot] kern xs = List.map succ xs\n\
     let bump r = r := !r + 1\n\
     let () = ignore (plain 3)\n\
     module Helper = struct\n\
    \  let inner y = plain y\n\
     end\n"
  in
  let s = Mod.of_tokens (T.tokenize src) in
  Alcotest.(check (list string)) "opens" [ "Lk_util" ] s.Mod.opens;
  Alcotest.(check (list (pair string string)))
    "aliases"
    [ ("R", "Lk_util.Rng") ]
    s.Mod.aliases;
  let names = List.map (fun (b : Mod.binding) -> b.Mod.name) s.Mod.bindings in
  Alcotest.(check (list string)) "bindings in source order"
    [ "plain"; "kern"; "bump"; "_anon_L6"; "Helper" ]
    names;
  let get n =
    List.find (fun (b : Mod.binding) -> b.Mod.name = n) s.Mod.bindings
  in
  Alcotest.(check bool) "[@hot] detected" true (get "kern").Mod.hot;
  Alcotest.(check bool) "plain not hot" false (get "plain").Mod.hot;
  Alcotest.(check bool) ":= marks mutates" true (get "bump").Mod.mutates;
  Alcotest.(check bool) "module block attributed to one coarse binding" true
    (List.exists
       (fun (o : Mod.occ) -> o.Mod.text = "plain")
       (get "Helper").Mod.refs)

let test_callgraph_resolution () =
  let summarize src = Mod.of_tokens (T.tokenize src) in
  let summaries =
    [ ("lib/demo/a.ml", summarize "let base x = x + 1\n");
      ( "lib/demo/b.ml",
        summarize
          "let use y = A.base y\nlet proj it = it.A.weight\nlet dotp r = r.A.base\n"
      ) ]
  in
  let cg = Cg.build ~libmap:[] summaries in
  let callees name =
    match Cg.find cg (Cg.id ~file:"lib/demo/b.ml" ~name) with
    | Some n -> n.Cg.callees
    | None -> Alcotest.fail ("missing node " ^ name)
  in
  Alcotest.(check (list string)) "sibling call resolves"
    [ "lib/demo/a.ml#base" ] (callees "use");
  Alcotest.(check (list string))
    "record projection of an unknown field is not a call" [] (callees "proj");
  Alcotest.(check (list string))
    "projection matching a real binding still resolves (over-approx)"
    [ "lib/demo/a.ml#base" ] (callees "dotp")

(* ------------------------------------------------------------------ *)
(* reachability rules on seeded violations *)

let test_effect_determinism_reach () =
  with_fixture
    (pure_lib
    @ [ ("lib/util/clockish.ml", "let now () = Unix.gettimeofday ()\n");
        ("lib/util/clockish.mli", "val now : unit -> float\n");
        ("lib/core/dune", "(library (name lk_lcakp) (libraries lk_util))");
        ("lib/core/answer.ml", "let answer x = Lk_util.Clockish.now () +. x\n");
        ("lib/core/answer.mli", "val answer : float -> float\n");
        ( "lint.allow",
          "determinism lib/util/clockish.ml # fixture: the smuggled wall \
           clock under test\n" ) ])
    (fun root ->
      let report = Engine.analyze ~root () in
      let hits = findings_with_rule "effect-determinism-reach" report in
      Alcotest.(check int) "exactly one determinism-reach finding" 1
        (List.length hits);
      let f = List.hd hits in
      Alcotest.(check string) "reported at the core boundary binding"
        "lib/core/answer.ml" f.F.file;
      Alcotest.(check bool) "witness chain names the clock helper" true
        (contains f.F.message "Clockish.now");
      Alcotest.(check bool) "classified as a clock read, not generic io" true
        (contains f.F.message "clock read");
      Alcotest.(check int) "nothing else fires" 1 (total_findings report);
      (* removing the smuggle restores a clean tree *)
      write_file
        (Filename.concat root "lib/util/clockish.ml")
        "let now () = float_of_int 42\n";
      write_file (Filename.concat root "lint.allow") "# empty\n";
      let report = Engine.analyze ~root () in
      Alcotest.(check int) "clean after removal" 0 (total_findings report))

let test_effect_oracle_accounting () =
  with_fixture
    (pure_lib
    @ [ ( "bin/tool.ml",
          "let count inst = Array.length (Instance.items inst)\n\
           let () = ignore count\n" ) ])
    (fun root ->
      let report = Engine.analyze ~root () in
      let hits = findings_with_rule "effect-oracle-accounting" report in
      Alcotest.(check int) "exactly one uncharged-probe finding" 1
        (List.length hits);
      Alcotest.(check string) "at the probing binding" "bin/tool.ml"
        (List.hd hits).F.file;
      Alcotest.(check int) "whole report = that one finding" 1
        (total_findings report);
      write_file
        (Filename.concat root "bin/tool.ml")
        "let count inst = Instance.size inst\nlet () = ignore count\n";
      let report = Engine.analyze ~root () in
      Alcotest.(check int) "metadata reads are clean" 0 (total_findings report))

let test_effect_parallel_confinement () =
  with_fixture
    (pure_lib
    @ [ ("bin/fan.ml", "let go f = Domain.spawn f\nlet run f = go f\n") ])
    (fun root ->
      let report = Engine.analyze ~root () in
      let confinement = findings_with_rule "effect-parallel-confinement" report in
      let site = findings_with_rule "parallelism-discipline" report in
      Alcotest.(check int) "one confinement finding (the caller)" 1
        (List.length confinement);
      Alcotest.(check int) "one token finding (the spawn site)" 1
        (List.length site);
      Alcotest.(check int) "nothing else" 2 (total_findings report);
      Alcotest.(check bool) "caller named in the message" true
        (contains (List.hd confinement).F.message "'run'");
      write_file
        (Filename.concat root "bin/fan.ml")
        "let go f = f ()\nlet run f = go f\n";
      let report = Engine.analyze ~root () in
      Alcotest.(check int) "clean after removing the spawn" 0
        (total_findings report))

let test_effect_parallel_blessed () =
  with_fixture
    (pure_lib
    @ [ ("lib/parallel/dune", "(library (name lk_parallel) (libraries lk_util))");
        ("lib/parallel/engine.ml", "let fan f = Domain.spawn f\n");
        ("lib/parallel/engine.mli", "val fan : (unit -> 'a) -> 'a Domain.t\n");
        ("bin/caller.ml", "let run f = Lk_parallel.Engine.fan f\n") ])
    (fun root ->
      let report = Engine.analyze ~root () in
      Alcotest.(check int) "spawning through the blessed engine is clean" 0
        (total_findings report))

let test_effect_hot_alloc () =
  with_fixture
    (pure_lib
    @ [ ( "bin/hotk.ml",
          "let[@hot] step xs = List.map succ xs\n\
           let cold xs = List.map succ xs\n" );
        ("bin/mank.ml", "let fold xs = List.fold_left (+) 0 xs\n");
        ("lint.hot", "# fixture manifest\nbin/mank.ml\n") ])
    (fun root ->
      let report = Engine.analyze ~root () in
      let hits = findings_with_rule "effect-hot-alloc" report in
      Alcotest.(check int) "tagged + manifest bindings flagged, cold one not" 2
        (List.length hits);
      Alcotest.(check bool) "hot-alloc findings are warnings" true
        (List.for_all (fun f -> not (F.is_error f)) hits);
      Alcotest.(check int) "nothing else fires" 2 (total_findings report);
      Alcotest.(check (list string)) "locations"
        [ "bin/hotk.ml"; "bin/mank.ml" ]
        (List.map (fun f -> f.F.file) hits))

let test_hot_manifest_covers_flat_kernels () =
  (* The PR8 flat-kernel files must stay under the hot-allocation
     discipline: deleting one from lint.hot would silently re-admit
     closure-allocating idioms into the preparation path. *)
  let manifest = read_all (Filename.concat (real_root ()) "lint.hot") in
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " in lint.hot") true (contains manifest path))
    [
      "lib/knapsack/dp_scratch.ml";
      "lib/knapsack/exact_dp.ml";
      "lib/knapsack/fptas.ml";
      "lib/util/int_sort.ml";
      "lib/stats/alias.ml";
      "lib/stats/empirical.ml";
      "lib/reproducible/rmedian.ml";
      "lib/core/prep_arena.ml";
      "lib/core/tilde.ml";
      "lib/core/eps.ml";
      "lib/core/mapping_greedy.ml";
      "lib/counting/count_scratch.ml";
      "lib/counting/state_dp.ml";
      "lib/counting/gkm.ml";
      "lib/counting/svv.ml";
    ]

let test_observability_sink_abstract () =
  (* observability-discipline is retired: it banned Lk_obs.Sink and
     Lk_obs.Ring outside lib/obs so no caller could reach a recorder's
     ring.  An abstract Obs.sink enforces that by type now, so pin the
     abstraction: a manifest [type sink = ...] must bring the rule back. *)
  let toks =
    T.tokenize (read_all (Filename.concat (real_root ()) "lib/obs/obs.mli"))
  in
  let n = Array.length toks in
  let rec find i =
    if i + 1 >= n then Alcotest.fail "lib/obs/obs.mli declares no type sink"
    else if toks.(i).T.text = "type" && toks.(i + 1).T.text = "sink" then
      i + 1
    else find (i + 1)
  in
  let i = find 0 in
  Alcotest.(check bool) "Obs.sink is abstract" false
    (i + 1 < n && toks.(i + 1).T.text = "=");
  (* the retired id is gone from the registry, so a lingering lint.allow
     entry for it is rejected at load instead of silently matching nothing *)
  let known = List.map fst Engine.rules in
  Alcotest.(check bool) "rule id retired" false
    (List.mem "observability-discipline" known);
  check_rules "allowlist entry for the retired id is an error" [ "allowlist" ]
    (Allow.errors
       (Allow.parse ~known "observability-discipline lib/a/x.ml # why\n"))

let test_counting_seeded_violations () =
  (* Seed both halves of the counting confinement into one fixture tree:
     a bin file naming the frozen program directly (counting-discipline)
     and a lib/counting dune stanza reaching above its layer (the
     lk_counting layering edge), and prove both fire through the full
     Engine.analyze pipeline. *)
  with_fixture
    (pure_lib
    @ [ ( "bin/freeride.ml",
          "let z w = Lk_counting.Robp.of_weights w ~capacity:9\n" );
        ( "lib/counting/dune",
          "(library (name lk_counting) (libraries lk_util lk_workloads))" ) ])
    (fun root ->
      let report = Engine.analyze ~root () in
      let confinement = findings_with_rule "counting-discipline" report in
      Alcotest.(check int) "confinement breach fires" 1 (List.length confinement);
      Alcotest.(check string) "in the bin file" "bin/freeride.ml"
        (List.hd confinement).F.file;
      Alcotest.(check bool) "names the facades" true
        (contains (List.hd confinement).F.message "Query_oracle");
      let layering = findings_with_rule "layering" report in
      Alcotest.(check int) "layering edge fires" 1 (List.length layering);
      Alcotest.(check bool) "names the illegal edge" true
        (contains (List.hd layering).F.message "lk_counting -> lk_workloads");
      Alcotest.(check int) "nothing else fires" 2 (total_findings report);
      (* fixing both silences the tree *)
      write_file
        (Filename.concat root "bin/freeride.ml")
        "let z oracle = Lk_counting.Exact.count oracle\n";
      write_file
        (Filename.concat root "lib/counting/dune")
        "(library (name lk_counting) (libraries lk_util lk_oracle))";
      let report = Engine.analyze ~root () in
      Alcotest.(check int) "clean after the fix" 0 (total_findings report))

let test_effect_hot_alloc_seeded_kernel () =
  (* Seed a banned closure idiom into a lib/ file named by the manifest —
     the exact shape of a regression in one of the PR8 kernels — and
     prove the rule fires on it even without a [@hot] tag. *)
  with_fixture
    (pure_lib
    @ [ ( "lib/util/kern.ml",
          "let total xs = List.fold_left (+) 0 xs\nlet use = total [1]\n" );
        ("lib/util/kern.mli", "val total : int list -> int\nval use : int\n");
        ("lint.hot", "# fixture manifest\nlib/util/kern.ml\n") ])
    (fun root ->
      let report = Engine.analyze ~root () in
      let hits = findings_with_rule "effect-hot-alloc" report in
      Alcotest.(check int) "seeded kernel violation fires" 1 (List.length hits);
      let f = List.hd hits in
      Alcotest.(check string) "in the manifest file" "lib/util/kern.ml" f.F.file;
      Alcotest.(check bool) "names the idiom" true (contains f.F.message "List.fold_left");
      (* fixing the file silences the rule *)
      write_file
        (Filename.concat root "lib/util/kern.ml")
        "let total xs =\n\
        \  let s = ref 0 in\n\
        \  let rec go = function [] -> !s | x :: tl -> (s := !s + x; go tl) in\n\
        \  go xs\n\
         let use = total [1]\n";
      let report = Engine.analyze ~root () in
      Alcotest.(check int) "clean after the fix" 0
        (List.length (findings_with_rule "effect-hot-alloc" report)))

(* ------------------------------------------------------------------ *)
(* differential: inferred effects vs the observed E1 profile *)

let test_obs_effect_differential () =
  let root = real_root () in
  let baseline = Json.of_file (Filename.concat root "OBS_BASELINE.json") in
  let phases =
    match Json.member "phases" baseline with
    | Some p -> ( match Json.to_list p with Some l -> l | None -> [])
    | None -> []
  in
  let trial =
    match
      List.find_opt
        (fun p ->
          match Json.member "path" p with
          | Some j -> Json.to_string_opt j = Some "root;e1;trial"
          | None -> false)
        phases
    with
    | Some p -> p
    | None -> Alcotest.fail "baseline has no root;e1;trial phase"
  in
  let total field =
    match Json.member "total" trial with
    | None -> 0.
    | Some t -> (
        match Json.member field t with
        | Some v -> ( match Json.to_float v with Some f -> f | None -> 0.)
        | None -> 0.)
  in
  (* the committed profile says every E1 trial consumes RNG and emits
     events into the trace *)
  Alcotest.(check bool) "observed rng splits in the trial phase" true
    (total "splits" > 0.);
  Alcotest.(check bool) "observed events in the trial phase" true
    (total "events" > 0.);
  let report = Engine.analyze ~root () in
  let eff file binding =
    match Eff.find report.Engine.effects ~file ~binding with
    | Some n -> n.Eff.effects
    | None ->
        Alcotest.fail (Printf.sprintf "no effect node for %s#%s" file binding)
  in
  (* static side: the trial entry points must carry the matching effects *)
  let run_eff = eff "lib/core/lca_kp.ml" "run" in
  Alcotest.(check bool) "run consumes rng (matches splits > 0)" true
    (Eff.mem Eff.Rng_consume run_eff);
  Alcotest.(check bool) "run probes the oracle through the charged seam" true
    (Eff.mem Eff.Oracle_probe run_eff);
  let query_eff = eff "lib/core/lca_kp.ml" "query" in
  Alcotest.(check bool) "query consumes rng" true
    (Eff.mem Eff.Rng_consume query_eff);
  Alcotest.(check bool) "query probes the oracle" true
    (Eff.mem Eff.Oracle_probe query_eff);
  (* and pure helpers must not: the profiler would have nowhere to
     attribute their (nonexistent) probes *)
  let det = eff "lib/util/det.ml" "sorted_bindings" in
  Alcotest.(check bool) "Det.sorted_bindings is oracle-free" false
    (Eff.mem Eff.Oracle_probe det);
  Alcotest.(check bool) "Det.sorted_bindings is rng-free" false
    (Eff.mem Eff.Rng_consume det);
  let item_eff = eff "lib/knapsack/item.ml" "efficiency" in
  Alcotest.(check bool) "Item.efficiency is clock-free" false
    (Eff.mem Eff.Clock_read item_eff)

(* ------------------------------------------------------------------ *)
(* reports: SARIF determinism and shape, registry *)

let test_report_determinism () =
  let sarif () =
    Sarif.to_string ~rules:Engine.rules
      (Engine.analyze ~root:(real_root ()) ()).Engine.findings
  in
  Alcotest.(check string) "sarif is byte-stable" (sarif ()) (sarif ())

let test_sarif_shape () =
  let findings =
    [ F.make ~rule:"determinism" ~file:"lib/a/x.ml" ~line:3 ~col:7 "bad";
      F.make ~severity:F.Warning ~rule:"effect-hot-alloc" ~file:"bin/y.ml"
        ~line:1 ~col:2 "alloc" ]
  in
  let doc = Json.parse (Sarif.to_string ~rules:Engine.rules findings) in
  let get path j =
    List.fold_left
      (fun acc k ->
        match acc with
        | None -> None
        | Some j -> (
            match int_of_string_opt k with
            | Some i -> (
                match Json.to_list j with
                | Some l -> List.nth_opt l i
                | None -> None)
            | None -> Json.member k j))
      (Some j) path
  in
  let str path =
    match get path doc with Some j -> Json.to_string_opt j | None -> None
  in
  let num path =
    match get path doc with Some j -> Json.to_float j | None -> None
  in
  Alcotest.(check (option string)) "version" (Some "2.1.0") (str [ "version" ]);
  Alcotest.(check (option string))
    "schema"
    (Some "https://json.schemastore.org/sarif-2.1.0.json")
    (str [ "$schema" ]);
  Alcotest.(check (option string)) "driver name" (Some "lk-lint")
    (str [ "runs"; "0"; "tool"; "driver"; "name" ]);
  (match get [ "runs"; "0"; "tool"; "driver"; "rules" ] doc with
  | Some r -> (
      match Json.to_list r with
      | Some l ->
          Alcotest.(check int) "full rule registry shipped"
            (List.length Engine.rules) (List.length l)
      | None -> Alcotest.fail "driver.rules is not an array")
  | None -> Alcotest.fail "driver.rules missing");
  Alcotest.(check (option string)) "result ruleId" (Some "determinism")
    (str [ "runs"; "0"; "results"; "0"; "ruleId" ]);
  Alcotest.(check (option string)) "error level" (Some "error")
    (str [ "runs"; "0"; "results"; "0"; "level" ]);
  Alcotest.(check (option string)) "warning level" (Some "warning")
    (str [ "runs"; "0"; "results"; "1"; "level" ]);
  Alcotest.(check (option string)) "artifact uri" (Some "lib/a/x.ml")
    (str
       [ "runs"; "0"; "results"; "0"; "locations"; "0"; "physicalLocation";
         "artifactLocation"; "uri" ]);
  Alcotest.(check (option (float 0.))) "startLine" (Some 3.)
    (num
       [ "runs"; "0"; "results"; "0"; "locations"; "0"; "physicalLocation";
         "region"; "startLine" ]);
  Alcotest.(check (option (float 0.))) "startColumn" (Some 7.)
    (num
       [ "runs"; "0"; "results"; "0"; "locations"; "0"; "physicalLocation";
         "region"; "startColumn" ])

let test_rules_registry_and_explain () =
  let ids = List.map fst Engine.rules in
  Alcotest.(check int) "rule ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun r ->
      Alcotest.(check bool) ("registry has " ^ r) true (List.mem r ids))
    [ "effect-oracle-accounting"; "effect-determinism-reach";
      "effect-parallel-confinement"; "effect-hot-alloc"; "allowlist" ];
  Alcotest.(check bool) "descriptions nonempty" true
    (List.for_all (fun (_, d) -> String.length d > 0) Engine.rules);
  let f = F.make ~rule:"determinism" ~file:"lib/a/x.ml" ~line:3 ~col:7 "msg" in
  let descr = List.assoc "determinism" Engine.rules in
  let s = F.to_string ~descr f in
  Alcotest.(check bool) "--explain rendering appends [rule] description" true
    (contains s ("[determinism] " ^ descr));
  Alcotest.(check bool) "plain rendering stays one line" false
    (contains (F.to_string f) "\n")

let () =
  Alcotest.run "analysis"
    [
      ( "tokenizer",
        [
          Alcotest.test_case "strings and comments" `Quick
            test_tokenizer_strings_and_comments;
          Alcotest.test_case "positions and kinds" `Quick
            test_tokenizer_positions_and_kinds;
          Alcotest.test_case "literal kinds" `Quick test_tokenizer_float_kinds;
          Alcotest.test_case "quoted strings, char literals, nesting" `Quick
            test_tokenizer_quoted_edge_cases;
          Alcotest.test_case "char literal in a comment" `Quick
            test_tokenizer_char_literal_in_comment;
        ] );
      ( "modgraph",
        [ Alcotest.test_case "extraction" `Quick test_modgraph_extraction ] );
      ( "callgraph",
        [ Alcotest.test_case "resolution" `Quick test_callgraph_resolution ] );
      ( "effects",
        [
          Alcotest.test_case "determinism reach" `Quick
            test_effect_determinism_reach;
          Alcotest.test_case "oracle accounting" `Quick
            test_effect_oracle_accounting;
          Alcotest.test_case "parallel confinement" `Quick
            test_effect_parallel_confinement;
          Alcotest.test_case "blessed engine absorbs spawn" `Quick
            test_effect_parallel_blessed;
          Alcotest.test_case "hot-path allocation" `Quick
            test_effect_hot_alloc;
          Alcotest.test_case "manifest covers flat kernels" `Quick
            test_hot_manifest_covers_flat_kernels;
          Alcotest.test_case "seeded kernel violation" `Quick
            test_effect_hot_alloc_seeded_kernel;
          Alcotest.test_case "obs profile differential" `Quick
            test_obs_effect_differential;
        ] );
      ( "reports",
        [
          Alcotest.test_case "byte-stable json and sarif" `Quick
            test_report_determinism;
          Alcotest.test_case "sarif shape" `Quick test_sarif_shape;
          Alcotest.test_case "registry and explain" `Quick
            test_rules_registry_and_explain;
        ] );
      ("determinism", confine_suite "determinism");
      ( "iteration-order",
        [
          Alcotest.test_case "positive" `Quick test_iteration_positive;
          Alcotest.test_case "negative" `Quick test_iteration_negative;
        ] );
      ( "float-equality",
        [
          Alcotest.test_case "positive" `Quick test_float_eq_positive;
          Alcotest.test_case "negative" `Quick test_float_eq_negative;
        ] );
      ( "mli-coverage",
        [ Alcotest.test_case "uncovered module" `Quick test_mli_coverage ] );
      ( "layering",
        [
          Alcotest.test_case "fixtures" `Quick test_layering_fixtures;
          Alcotest.test_case "counting edges" `Quick test_layering_counting_edges;
          Alcotest.test_case "real lib/*/dune" `Quick test_layering_real_tree;
        ] );
      ( "oracle-discipline",
        [ Alcotest.test_case "scoped accessor ban" `Quick test_oracle_discipline ] );
      ("parallelism-discipline", confine_suite "parallelism-discipline");
      ("timing-discipline", confine_suite "timing-discipline");
      ( "observability-discipline",
        [
          Alcotest.test_case "abstract sink" `Quick
            test_observability_sink_abstract;
        ] );
      ( "counting-discipline",
        confine_suite "counting-discipline"
        @ [
            Alcotest.test_case "seeded violations" `Quick
              test_counting_seeded_violations;
          ] );
      ( "confinement",
        [
          Alcotest.test_case "pinned messages" `Quick
            test_confine_pinned_messages;
          Alcotest.test_case "table ids registered" `Quick
            test_confine_ids_registered;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "round trip" `Quick test_allowlist_round_trip;
          Alcotest.test_case "justification required" `Quick
            test_allowlist_requires_justification;
          Alcotest.test_case "stale and unknown" `Quick
            test_allowlist_stale_and_unknown;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fixture tree" `Quick test_engine_fixture_tree;
          Alcotest.test_case "real tree" `Quick test_engine_real_tree;
          Alcotest.test_case "char literal in a comment" `Quick
            test_engine_char_literal_in_comment;
        ] );
    ]
