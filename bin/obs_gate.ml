(* Regression gate over two query-complexity profiles (schema
   lca-knapsack-obs/1, written by `experiments --profile` or
   `trace_tool profile`).

     obs_gate [--tolerance FRAC] baseline.json candidate.json

   Exit status: 0 when every per-phase quantity is within the tolerance
   (default 0 — query counts are deterministic, so the default stance is
   exact equality), 1 on drift, 2 on bad invocation, unreadable/invalid
   input, or a phase path present in only one file (a renamed or dropped
   phase must fail loudly, not silently shrink the compared set). *)

module Profile = Lk_profile.Profile

let usage = "obs_gate [--tolerance FRAC] baseline.json candidate.json"

let () =
  let tolerance = ref 0. in
  let positional = ref [] in
  let spec =
    [
      ( "--tolerance",
        Arg.Set_float tolerance,
        "FRAC  allow |candidate - baseline| <= FRAC * baseline (default 0)" );
    ]
  in
  Arg.parse spec (fun a -> positional := a :: !positional) usage;
  match List.rev !positional with
  | [ baseline_path; candidate_path ] -> (
      if !tolerance < 0. then begin
        prerr_endline "obs_gate: tolerance must be >= 0";
        exit 2
      end;
      let load role path =
        match Profile.load path with
        | Ok p -> p
        | Error msg ->
            (* [msg] already starts with the path. *)
            Printf.eprintf "obs_gate: cannot load %s file %s\n" role msg;
            exit 2
      in
      let baseline = load "baseline" baseline_path in
      let candidate = load "candidate" candidate_path in
      let cmp = Profile.gate ~tolerance:!tolerance ~baseline ~candidate in
      print_string (Profile.render_comparison ~tolerance:!tolerance cmp);
      (match (cmp.Profile.missing, cmp.Profile.added) with
      | [], [] -> ()
      | missing, added ->
          let side role = function
            | [] -> []
            | ps -> [ Printf.sprintf "%s: %s" role (String.concat ", " ps) ]
          in
          Printf.eprintf
            "obs_gate: phase path(s) present in only one file (%s); comparing \
             mismatched phase sets would silently skip them — regenerate the \
             stale profile or update the baseline\n"
            (String.concat "; "
               (side "only in baseline" missing @ side "only in candidate" added));
          exit 2);
      match cmp.Profile.drifts with
      | [] ->
          Printf.printf "OK: no phase drifted by more than %.0f%%\n"
            (!tolerance *. 100.);
          exit 0
      | drifts ->
          Printf.printf "FAIL: %d quantit(ies) drifted by more than %.0f%%\n"
            (List.length drifts) (!tolerance *. 100.);
          exit 1)
  | _ ->
      prerr_endline usage;
      exit 2
