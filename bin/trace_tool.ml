(* Trace replay and inspection: the closing link of the observability
   loop.  A trace file (lib/obs) carries, in its meta block, everything
   needed to re-execute the run it recorded; [verify] does exactly that
   and compares the replayed event stream against the recorded one.
   Byte-identical streams are the determinism contract made checkable
   after the fact — DESIGN.md §10. *)

module Rng = Lk_util.Rng
module Gen = Lk_workloads.Gen
module Access = Lk_oracle.Access
module Params = Lk_lcakp.Params
module Lca_kp = Lk_lcakp.Lca_kp
module Obs = Lk_obs.Obs
module Event = Lk_obs.Event
module Trace = Lk_obs.Trace
module Json = Lk_benchkit.Json

(* Exit codes, shared with bench_compare's convention: 0 = verified /
   equal, 1 = divergence found, 2 = bad invocation or unreadable file. *)
let exit_ok = 0
let exit_divergent = 1
let exit_error = 2

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit exit_error) fmt

(* --------------------------------------------------------- lca-run spec

   A recorded LCA run is a pure function of this spec: the instance is
   drawn from (family, gen_seed, n, capacity_fraction), the algorithm
   from (epsilon, sample_scale, seed), and the query loop from
   (fresh_seed, queries).  Floats travel through meta as %h hex
   literals so the round-trip is exact. *)

type run_spec = {
  family : Gen.family;
  n : int;
  capacity_fraction : float;
  gen_seed : int64;
  epsilon : float;
  sample_scale : float;
  seed : int64;
  fresh_seed : int64;
  queries : int;
}

let execute spec ~sink =
  let inst =
    Gen.generate ~capacity_fraction:spec.capacity_fraction spec.family
      (Rng.create spec.gen_seed) ~n:spec.n
  in
  let access = Access.of_instance ~sink inst in
  let params = Params.practical ~sample_scale:spec.sample_scale spec.epsilon in
  let algo = Lca_kp.create params access ~seed:spec.seed in
  let fresh = Rng.create spec.fresh_seed in
  for q = 0 to spec.queries - 1 do
    (* Fixed probe schedule (the E6 stride). *)
    ignore (Lca_kp.query algo ~fresh ((q * 97) mod spec.n))
  done;
  Params.digest params

let meta_of_spec spec ~digest =
  [
    ("kind", "lca-run");
    ("family", Gen.name spec.family);
    ("n", string_of_int spec.n);
    ("capacity_fraction", Printf.sprintf "%h" spec.capacity_fraction);
    ("gen_seed", Int64.to_string spec.gen_seed);
    ("epsilon", Printf.sprintf "%h" spec.epsilon);
    ("sample_scale", Printf.sprintf "%h" spec.sample_scale);
    ("seed", Int64.to_string spec.seed);
    ("fresh_seed", Int64.to_string spec.fresh_seed);
    ("queries", string_of_int spec.queries);
    ("params_digest", digest);
  ]

let spec_of_trace trace =
  let ( let* ) = Result.bind in
  let req key =
    match Trace.meta_find trace key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "trace meta is missing %S" key)
  in
  let int_field key =
    let* v = req key in
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "meta %s=%S is not an int" key v)
  in
  let int64_field key =
    let* v = req key in
    match Int64.of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "meta %s=%S is not an int64" key v)
  in
  let float_field key =
    let* v = req key in
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "meta %s=%S is not a float" key v)
  in
  let* fam = req "family" in
  let* family =
    match Gen.of_name fam with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "unknown family %S" fam)
  in
  let* n = int_field "n" in
  let* capacity_fraction = float_field "capacity_fraction" in
  let* gen_seed = int64_field "gen_seed" in
  let* epsilon = float_field "epsilon" in
  let* sample_scale = float_field "sample_scale" in
  let* seed = int64_field "seed" in
  let* fresh_seed = int64_field "fresh_seed" in
  let* queries = int_field "queries" in
  Ok
    {
      family;
      n;
      capacity_fraction;
      gen_seed;
      epsilon;
      sample_scale;
      seed;
      fresh_seed;
      queries;
    }

(* ------------------------------------------------------------- reporting *)

let report_divergence ~recorded ~replayed =
  match Trace.first_divergence ~recorded ~replayed with
  | None ->
      Printf.printf "verified: %d events, streams byte-identical\n"
        (List.length (Trace.events recorded));
      exit_ok
  | Some d ->
      let show = function
        | Some e -> Event.to_string e
        | None -> "<stream ended>"
      in
      Printf.printf "DIVERGENCE at event %d:\n  recorded: %s\n  replayed: %s\n"
        d.Trace.index (show d.Trace.recorded) (show d.Trace.replayed);
      exit_divergent

let read_bytes path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* ------------------------------------------------------------- commands *)

let load_or_fail path =
  match Trace.load path with Ok t -> t | Error m -> fail "%s: %s" path m

let record out family n capacity_fraction gen_seed epsilon scale seed fresh_seed
    queries =
  let family =
    match Gen.of_name family with
    | Some f -> f
    | None ->
        fail "unknown family %S (known: %s)" family
          (String.concat ", " (List.map Gen.name Gen.all_families))
  in
  let spec =
    {
      family;
      n;
      capacity_fraction;
      gen_seed;
      epsilon;
      sample_scale = scale;
      seed;
      fresh_seed;
      queries;
    }
  in
  let sink = Obs.recorder () in
  let digest = execute spec ~sink in
  Trace.save out
    (Trace.make ~label:"lca-run"
       ~meta:(meta_of_spec spec ~digest)
       ~dropped:(Obs.dropped sink) (Obs.events sink));
  Printf.printf "recorded %d events to %s (%d dropped)\n"
    (List.length (Obs.events sink))
    out (Obs.dropped sink);
  exit_ok

let verify_lca_run recorded =
  match spec_of_trace recorded with
  | Error m -> fail "cannot replay: %s" m
  | Ok spec ->
      let sink = Obs.recorder () in
      let digest = execute spec ~sink in
      (match Trace.meta_find recorded "params_digest" with
      | Some d when d <> digest ->
          fail "params digest mismatch (recorded %s, replayed %s): the \
                parameter derivation changed since this trace was recorded"
            d digest
      | _ -> ());
      let replayed =
        Trace.make ~label:"lca-run"
          ~meta:(meta_of_spec spec ~digest)
          ~dropped:(Obs.dropped sink) (Obs.events sink)
      in
      report_divergence ~recorded ~replayed

(* An experiments trace is replayed through the CLI itself: meta names the
   exact invocation, [--runner] names the executable.  The replay writes a
   sibling trace file and the comparison is on bytes first (label, meta,
   dropped, and events all included), with an event-level divergence
   report when bytes differ. *)
let verify_experiments path recorded runner =
  let runner =
    match runner with
    | Some r -> r
    | None ->
        fail
          "this is an experiments trace; pass --runner PATH/TO/experiments.exe \
           to replay it"
  in
  let meta key = Option.value ~default:"" (Trace.meta_find recorded key) in
  let replay_path = path ^ ".replay" in
  let argv =
    (match String.split_on_char ' ' (meta "names") with
    | [ "" ] -> []
    | names -> names)
    @ (if meta "quick" = "true" then [ "--quick" ] else [])
    @ (match meta "jobs" with "" -> [] | j -> [ "--jobs"; j ])
    @ [ "--trace"; replay_path ]
  in
  let cmd = Filename.quote_command runner ~stdout:Filename.null argv in
  let rc = Sys.command cmd in
  if rc <> 0 then fail "replay run failed with exit code %d: %s" rc cmd;
  if read_bytes path = read_bytes replay_path then begin
    Sys.remove replay_path;
    Printf.printf "verified: %d events, trace files byte-identical\n"
      (List.length (Trace.events recorded));
    exit_ok
  end
  else begin
    let replayed = load_or_fail replay_path in
    Printf.printf "trace files differ (replay kept at %s)\n" replay_path;
    report_divergence ~recorded ~replayed
  end

let verify path runner =
  let recorded = load_or_fail path in
  match Trace.meta_find recorded "kind" with
  | Some "lca-run" -> verify_lca_run recorded
  | Some "experiments" -> verify_experiments path recorded runner
  | Some k -> fail "%s: unknown trace kind %S" path k
  | None -> fail "%s: trace meta has no \"kind\"" path

let show path =
  let t = load_or_fail path in
  Printf.printf "label:   %s\n" (Trace.label t);
  List.iter (fun (k, v) -> Printf.printf "meta:    %s = %s\n" k v) (Trace.meta t);
  Printf.printf "dropped: %d\nevents:  %d\n" (Trace.dropped t)
    (List.length (Trace.events t));
  List.iter
    (fun (label, count) -> Printf.printf "  %-24s %d\n" label count)
    (Trace.event_histogram t);
  exit_ok

let diff a b =
  let ta = load_or_fail a and tb = load_or_fail b in
  report_divergence ~recorded:ta ~replayed:tb

let profile_cmd_impl path out =
  let t = load_or_fail path in
  let p = Lk_profile.Profile.of_trace t in
  List.iter
    (fun m -> Printf.eprintf "warning: unbalanced stream: %s\n" m)
    p.Lk_profile.Profile.issues;
  (match out with
  | Some o ->
      Lk_profile.Profile.save o p;
      Printf.printf "wrote %d phase row(s) to %s\n"
        (List.length p.Lk_profile.Profile.rows)
        o
  | None -> print_string (Json.to_string (Lk_profile.Profile.to_json p)));
  exit_ok

let export path format out =
  let write_json json =
    match out with
    | Some o ->
        Json.write_file o json;
        Printf.printf "wrote %s\n" o
    | None -> print_string (Json.to_string json)
  in
  let write_text s =
    match out with
    | Some o ->
        Lk_profile.Export.write_text o s;
        Printf.printf "wrote %s\n" o
    | None -> print_string s
  in
  (match format with
  | `Perfetto -> write_json (Lk_profile.Export.perfetto (load_or_fail path))
  | `Folded -> write_text (Lk_profile.Export.folded (load_or_fail path)));
  exit_ok

(* ------------------------------------------------------------- cmdliner *)

open Cmdliner

let file_pos ~doc = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let record_cmd =
  let doc = "Run a small LCA-KP query workload and record its trace." in
  let out = file_pos ~doc:"Output trace file." in
  let family =
    Arg.(value & opt string "garbage-mix"
         & info [ "family" ] ~docv:"FAMILY" ~doc:"Workload family (see lcakp_cli gen).")
  in
  let n = Arg.(value & opt int 2000 & info [ "n" ] ~doc:"Instance size.") in
  let capacity_fraction =
    Arg.(value & opt float 0.4 & info [ "capacity-fraction" ] ~doc:"Capacity as a fraction of total weight.")
  in
  let gen_seed = Arg.(value & opt int64 11L & info [ "gen-seed" ] ~doc:"Instance generator seed.") in
  let epsilon = Arg.(value & opt float 0.15 & info [ "epsilon" ] ~doc:"Approximation parameter.") in
  let scale = Arg.(value & opt float 0.02 & info [ "scale" ] ~doc:"Params.practical sample_scale.") in
  let seed = Arg.(value & opt int64 5L & info [ "seed" ] ~doc:"Shared (read-only) LCA seed.") in
  let fresh_seed = Arg.(value & opt int64 404L & info [ "fresh-seed" ] ~doc:"Per-run fresh RNG seed.") in
  let queries = Arg.(value & opt int 8 & info [ "queries" ] ~doc:"Number of point queries to trace.") in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(const record $ out $ family $ n $ capacity_fraction $ gen_seed
          $ epsilon $ scale $ seed $ fresh_seed $ queries)

let runner_arg =
  let doc =
    "Path to the experiments executable, required to replay traces recorded \
     by 'experiments --trace'."
  in
  Arg.(value & opt (some string) None & info [ "runner" ] ~docv:"EXE" ~doc)

let verify_cmd =
  let doc =
    "Re-execute the run a trace records and check the replayed event stream \
     is identical (exit 0 identical, 1 divergent, 2 error)."
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const verify $ file_pos ~doc:"Trace file to verify." $ runner_arg)

let show_cmd =
  let doc = "Print a trace's label, meta, and per-event-type counts." in
  Cmd.v (Cmd.info "show" ~doc) Term.(const show $ file_pos ~doc:"Trace file.")

let diff_cmd =
  let doc = "First divergence between two traces' event streams." in
  let a = Arg.(required & pos 0 (some string) None & info [] ~docv:"A" ~doc:"First trace.") in
  let b = Arg.(required & pos 1 (some string) None & info [] ~docv:"B" ~doc:"Second trace.") in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const diff $ a $ b)

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")

let profile_cmd =
  let doc =
    "Aggregate a trace into a query-complexity profile (schema \
     lca-knapsack-obs/1): per-phase event/query counts with self/total \
     accounting and per-trial quantiles.  Profiles feed obs_gate."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const profile_cmd_impl $ file_pos ~doc:"Trace file to profile." $ out_arg)

let export_cmd =
  let doc =
    "Export a trace (formats: perfetto, folded) for external viewers — \
     Perfetto/chrome://tracing, flamegraph.pl."
  in
  let format =
    let formats = [ ("perfetto", `Perfetto); ("folded", `Folded) ] in
    Arg.(required & opt (some (enum formats)) None
         & info [ "format"; "f" ] ~docv:"FORMAT"
             ~doc:"Output format: $(b,perfetto) or $(b,folded).")
  in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const export $ file_pos ~doc:"Trace file." $ format $ out_arg)

let cmd =
  let doc = "Record, replay-verify, and inspect LCA-knapsack trace files" in
  Cmd.group (Cmd.info "trace_tool" ~doc)
    [ record_cmd; verify_cmd; show_cmd; diff_cmd; profile_cmd; export_cmd ]

let () = exit (Cmd.eval' cmd)
