(* Trace replay and inspection: the closing link of the observability
   loop.  Every trace file (lib/obs) records the arguments that re-create
   its run; [verify] runs them again through the recording binary and
   compares the two files byte for byte.  Byte-identical files are the
   determinism contract made checkable after the fact — DESIGN.md §10. *)

module Event = Lk_obs.Event
module Trace = Lk_obs.Trace
module Json = Lk_benchkit.Json

(* Exit codes, shared with the other binaries (Cli_exit): 0 = verified /
   equal, 1 = divergence found, 2 = bad invocation or unreadable file. *)
let exit_ok = 0
let exit_divergent = 1
let exit_error = Cli_exit.error

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit exit_error) fmt

(* ------------------------------------------------------------- reporting *)

let print_divergence (d : Trace.divergence) =
  let show = function Some e -> Event.to_string e | None -> "<stream ended>" in
  Printf.printf "DIVERGENCE at event %d:\n  recorded: %s\n  replayed: %s\n" d.index
    (show d.recorded) (show d.replayed)

(* ------------------------------------------------------------- commands *)

let load_or_fail path =
  match Trace.load path with Ok t -> t | Error m -> fail "%s" m

let read_bytes path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error m -> fail "%s" m

(* One replay path for every producer: run [runner] on the recorded argv
   plus [--trace PATH.replay] from the current directory, so relative
   paths in argv resolve when verify runs where the recording was made.
   The files are compared on bytes, header included; on a difference the
   replay is kept and the first divergent event is printed. *)
let verify path runner =
  let recorded = load_or_fail path in
  let replay_path = path ^ ".replay" in
  let cmd =
    Filename.quote_command runner ~stdout:Filename.null
      (Trace.argv recorded @ [ "--trace"; replay_path ])
  in
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
    (match Trace.first_divergence ~recorded ~replayed with
    | Some d -> print_divergence d
    | None -> print_endline "event streams equal; the headers differ");
    exit_divergent
  end

let show path =
  let t = load_or_fail path in
  Printf.printf "label:   %s\n" (Trace.label t);
  List.iter (Printf.printf "argv:    %s\n") (Trace.argv t);
  Printf.printf "dropped: %d\nevents:  %d\n" (Trace.dropped t)
    (List.length (Trace.events t));
  List.iter
    (fun (label, count) -> Printf.printf "  %-24s %d\n" label count)
    (Trace.event_histogram t);
  exit_ok

let diff a b =
  let recorded = load_or_fail a and replayed = load_or_fail b in
  match Trace.first_divergence ~recorded ~replayed with
  | None ->
      Printf.printf "verified: %d events, streams byte-identical\n"
        (List.length (Trace.events recorded));
      exit_ok
  | Some d ->
      print_divergence d;
      exit_divergent

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

let exits = Cli_exit.exits []

(* verify and diff also report a divergence. *)
let divergent_exits =
  Cli_exit.exits [ Cmd.Exit.info exit_divergent ~doc:"when the two traces differ." ]

let file_pos ~doc = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let runner_arg =
  let doc =
    "The executable that recorded the trace (experiments, lcakp_cli or \
     loadgen)."
  in
  Arg.(required & opt (some string) None & info [ "runner" ] ~docv:"EXE" ~doc)

let verify_cmd =
  let doc =
    "Re-run the command a trace records and check the replay writes the same \
     file (exit 0 identical, 1 divergent, 2 error)."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs $(b,--runner) on the arguments stored in the trace, plus \
         $(b,--trace) FILE.replay, from the current directory; run it from \
         the directory the trace was recorded in, so that relative paths \
         resolve.  The two files are compared byte for byte; on a \
         difference the replay is kept and the first divergent event is \
         printed.";
      `P
        "A trace is trusted input, like a script: $(b,verify) executes the \
         arguments it holds.  Verify only traces you would run yourself.";
    ]
  in
  Cmd.v (Cmd.info "verify" ~doc ~man ~exits:divergent_exits)
    Term.(const verify $ file_pos ~doc:"Trace file to verify." $ runner_arg)

let show_cmd =
  let doc = "Print a trace's label, argv, and per-event-type counts." in
  Cmd.v (Cmd.info "show" ~doc ~exits) Term.(const show $ file_pos ~doc:"Trace file.")

let diff_cmd =
  let doc = "First divergence between two traces' event streams." in
  let a = Arg.(required & pos 0 (some string) None & info [] ~docv:"A" ~doc:"First trace.") in
  let b = Arg.(required & pos 1 (some string) None & info [] ~docv:"B" ~doc:"Second trace.") in
  Cmd.v (Cmd.info "diff" ~doc ~exits:divergent_exits) Term.(const diff $ a $ b)

let out_arg =
  Arg.(value & opt (some Cli_exit.output_path) None
       & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")

let profile_cmd =
  let doc =
    "Aggregate a trace into a query-complexity profile (schema \
     lca-knapsack-obs/1): per-phase event/query counts with self/total \
     accounting and per-trial quantiles.  Profiles feed obs_gate."
  in
  Cmd.v (Cmd.info "profile" ~doc ~exits)
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
  Cmd.v (Cmd.info "export" ~doc ~exits)
    Term.(const export $ file_pos ~doc:"Trace file." $ format $ out_arg)

let cmd =
  let doc = "Replay-verify and inspect LCA-knapsack trace files" in
  Cmd.group (Cmd.info "trace_tool" ~doc ~exits:divergent_exits)
    [ verify_cmd; show_cmd; diff_cmd; profile_cmd; export_cmd ]

let () = Cli_exit.exit (Cmd.eval' cmd)
