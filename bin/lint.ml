(* lk_analysis driver: lints the source tree for determinism,
   oracle-discipline, and whole-program effect-reachability violations.
   Exit status 0 = clean (warnings allowed, up to --max-warnings),
   1 = at least one error (or too many warnings), 2 = bad invocation or
   internal error — the same three-way contract as bench_compare and
   obs_gate. *)

let usage =
  "usage: lint [--root DIR] [--allow FILE] [--hot FILE] [--sarif]\n\
  \            [--max-warnings N] [--explain RULE] [--list-rules] [--quiet]"

let () =
  let root = ref "." and allow = ref None in
  let hot = ref None and sarif = ref false in
  let quiet = ref false and list_rules = ref false in
  let max_warnings = ref (-1) in
  let explain = ref None in
  let spec =
    [ ("--root", Arg.Set_string root, "DIR repository root to lint (default .)");
      ("--allow", Arg.String (fun f -> allow := Some f),
       "FILE allowlist file (default ROOT/lint.allow)");
      ("--hot", Arg.String (fun f -> hot := Some f),
       "FILE hot-path manifest (default ROOT/lint.hot)");
      ("--sarif", Arg.Set sarif, " SARIF 2.1.0 report for CI artifact upload");
      ("--max-warnings", Arg.Set_int max_warnings,
       "N fail (exit 1) when more than N warnings survive (default: \
        unlimited)");
      ("--explain", Arg.String (fun r -> explain := Some r),
       "RULE print the rule's description, and annotate its findings");
      ("--list-rules", Arg.Set list_rules, " print rule ids and exit");
      ("--quiet", Arg.Set quiet, " print errors only") ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  let rules =
    List.sort (fun (a, _) (b, _) -> compare a b) Lk_analysis.Engine.rules
  in
  if !list_rules then begin
    List.iter (fun (id, descr) -> Printf.printf "%-28s %s\n" id descr) rules;
    exit 0
  end;
  let explain_descr =
    match !explain with
    | None -> None
    | Some id -> (
        match List.assoc_opt id rules with
        | Some descr ->
            Printf.printf "%s: %s\n" id descr;
            Some (id, descr)
        | None ->
            Printf.eprintf
              "lint: unknown rule id '%s' (try --list-rules)\n" id;
            exit 2)
  in
  match
    Lk_analysis.Engine.analyze ?allow_file:!allow ?hot_manifest:!hot
      ~root:!root ()
  with
  | exception e ->
      Printf.eprintf "lint: internal error: %s\n" (Printexc.to_string e);
      exit 2
  | report ->
      let findings = report.Lk_analysis.Engine.findings in
      let files = report.Lk_analysis.Engine.files_checked in
      let errors, warnings =
        List.partition Lk_analysis.Finding.is_error findings
      in
      if !sarif then print_string (Lk_analysis.Sarif.to_string ~rules findings)
      else begin
        List.iter
          (fun (f : Lk_analysis.Finding.t) ->
            let descr =
              match explain_descr with
              | Some (id, d) when f.Lk_analysis.Finding.rule = id -> Some d
              | _ -> None
            in
            print_endline (Lk_analysis.Finding.to_string ?descr f))
          (if !quiet then errors else findings)
      end;
      let too_many_warnings =
        !max_warnings >= 0 && List.length warnings > !max_warnings
      in
      if errors <> [] || too_many_warnings then begin
        if not !sarif then
          Printf.printf "lint: %d error(s), %d warning(s)%s in %d file(s)\n"
            (List.length errors) (List.length warnings)
            (if too_many_warnings then
               Printf.sprintf " (max %d)" !max_warnings
             else "")
            files;
        exit 1
      end
      else if not (!quiet || !sarif) then
        Printf.printf "lint: OK (%d file(s), %d warning(s))\n" files
          (List.length warnings)
