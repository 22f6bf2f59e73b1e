let rules =
  [ ("determinism",
     "randomness/time outside Lk_util.Rng (Random.*, Sys.time, ...)");
    (Rule_iteration.id,
     "Hashtbl.fold/iter whose result is not immediately sorted");
    (Rule_float_eq.id, "exact =/<>/== against a float literal");
    (Rule_mli.id, "lib/ module without a .mli interface");
    (Rule_layering.id, "lib/*/dune dependency outside the layering DAG");
    ("oracle-discipline",
     "direct Instance item access above the oracle layer");
    ("parallelism-discipline",
     "Domain/Atomic/Mutex/... usage outside lib/parallel");
    ("timing-discipline",
     "Monotonic_clock/Mtime/Bechamel clock reads outside lib/benchkit");
    ("counting-discipline",
     "Lk_counting.Robp/State_dp/Count_scratch access outside lib/counting \
      (go through the Exact/Gkm/Svv/Sampler facades)");
    ("allowlist", "malformed or stale lint.allow entries") ]
  @ Rule_effects.rules

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Relative paths under [root/dir], '/'-joined, sorted, skipping build
   artifacts and hidden entries. *)
let walk root dir =
  let out = ref [] in
  let rec go rel =
    let abs = Filename.concat root rel in
    if Sys.file_exists abs then
      if Sys.is_directory abs then begin
        let entries = Sys.readdir abs in
        Array.sort compare entries;
        Array.iter
          (fun e ->
            if e <> "" && e.[0] <> '.' && e <> "_build" then
              go (rel ^ "/" ^ e))
          entries
      end
      else out := rel :: !out
  in
  if
    Sys.file_exists (Filename.concat root dir)
    && Sys.is_directory (Filename.concat root dir)
  then go dir;
  List.rev !out

let token_rules_for file =
  if starts_with "lib/" file then [ Rule_iteration.check; Rule_float_eq.check ]
  else []

type report = {
  files_checked : int;
  findings : Finding.t list;
  effects : Effects.table;
}

let analyze ?allow_file ?hot_manifest ~root () =
  let lib_files = walk root "lib" in
  let bin_files = walk root "bin" in
  let ml_files =
    List.filter
      (fun f -> Filename.check_suffix f ".ml")
      (lib_files @ bin_files)
  in
  (* Per-file pass: tokenize once, run the token rules and extract the
     module summary. *)
  let per_file =
    List.map
      (fun file ->
        let tokens = Tokenizer.tokenize (read_file (Filename.concat root file)) in
        let findings =
          List.concat_map
            (fun check -> check ~file tokens)
            (token_rules_for file)
        in
        (file, Modgraph.of_tokens tokens, findings))
      ml_files
  in
  let token_findings = List.concat_map (fun (_, _, f) -> f) per_file in
  let mli_findings = Rule_mli.check ~files:lib_files in
  let dune_files =
    List.filter (fun f -> Filename.basename f = "dune") lib_files
  in
  let dune_contents =
    List.map (fun f -> (f, read_file (Filename.concat root f))) dune_files
  in
  let layering_findings = Rule_layering.check_files dune_contents in
  (* Whole-program pass: library map -> call graph -> effect fixpoint ->
     confinement sites and reachability rules. *)
  let libmap =
    List.filter_map
      (fun (path, content) ->
        match Rule_layering.library_name ~content with
        | Some name ->
            Some (String.capitalize_ascii name, Filename.dirname path)
        | None -> None)
      dune_contents
  in
  let callgraph =
    Callgraph.build ~libmap
      (List.map (fun (file, summary, _) -> (file, summary)) per_file)
  in
  let effects = Effects.infer callgraph in
  let manifest =
    let path =
      match hot_manifest with
      | Some p -> p
      | None -> Filename.concat root "lint.hot"
    in
    Rule_effects.load_manifest path
  in
  let effect_findings = Rule_effects.check ~manifest effects in
  let allow =
    let path =
      match allow_file with
      | Some p -> p
      | None -> Filename.concat root "lint.allow"
    in
    Allowlist.load ~known:(List.map fst rules) path
  in
  let checked =
    Allowlist.filter allow
      (token_findings @ mli_findings @ layering_findings @ effect_findings)
  in
  let findings =
    List.concat [ Allowlist.errors allow; checked; Allowlist.stale allow ]
    |> List.sort Finding.compare_location
  in
  {
    files_checked = List.length ml_files + List.length dune_files;
    findings;
    effects;
  }
