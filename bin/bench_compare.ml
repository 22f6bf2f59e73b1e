(* Regression gate over two BENCH json files (schema lca-knapsack-bench/1).

     bench_compare [--threshold FRAC] baseline.json candidate.json

   Exit status: 0 when no common bench regressed by more than the
   threshold (default 0.15 = 15%), 1 on regression, 2 on bad invocation,
   unreadable/invalid input, or a bench id present in only one file (a
   renamed or dropped bench must fail loudly, not silently shrink the
   compared set). *)

let usage = "bench_compare [--threshold FRAC] baseline.json candidate.json"

let () =
  let threshold = ref 0.15 in
  let positional = ref [] in
  let spec =
    [
      ( "--threshold",
        Arg.Set_float threshold,
        "FRAC  fail when candidate/baseline > 1 + FRAC (default 0.15)" );
    ]
  in
  Arg.parse spec (fun a -> positional := a :: !positional) usage;
  match List.rev !positional with
  | [ baseline_path; candidate_path ] -> (
      if !threshold < 0. then begin
        prerr_endline "bench_compare: threshold must be >= 0";
        exit 2
      end;
      let load role path =
        match Lk_benchkit.Benchkit.load path with
        | Ok f -> f
        | Error msg ->
            (* [msg] already starts with the path. *)
            Printf.eprintf "bench_compare: cannot load %s file %s\n" role msg;
            exit 2
      in
      let baseline = load "baseline" baseline_path in
      let candidate = load "candidate" candidate_path in
      let cmp =
        Lk_benchkit.Benchkit.compare_files ~threshold:!threshold ~baseline ~candidate
      in
      print_string (Lk_benchkit.Benchkit.render_comparison ~threshold:!threshold cmp);
      (match (cmp.Lk_benchkit.Benchkit.missing, cmp.Lk_benchkit.Benchkit.added) with
      | [], [] -> ()
      | missing, added ->
          let side role = function
            | [] -> []
            | ids -> [ Printf.sprintf "%s: %s" role (String.concat ", " ids) ]
          in
          Printf.eprintf
            "bench_compare: bench id(s) present in only one file (%s); \
             comparing mismatched bench sets would silently skip them — \
             regenerate the stale file or update the baseline\n"
            (String.concat "; "
               (side "only in baseline" missing @ side "only in candidate" added));
          exit 2);
      (match cmp.Lk_benchkit.Benchkit.warnings with
      | [] -> ()
      | warns ->
          (* Over-threshold but not gate-worthy: the r² on at least one
             side is null or negative, so the ratio is a low-confidence
             fit.  Say so loudly — on stderr, where humans look — without
             failing the gate. *)
          List.iter
            (fun (d : Lk_benchkit.Benchkit.delta) ->
              Printf.eprintf
                "bench_compare: WARN %s is %.2fx over baseline but its fit \
                 is low-confidence (r^2 null or negative); not gating\n"
                d.Lk_benchkit.Benchkit.bench d.Lk_benchkit.Benchkit.ratio)
            warns);
      match cmp.Lk_benchkit.Benchkit.regressions with
      | [] ->
          Printf.printf "OK: no bench regressed by more than %.0f%%\n"
            (!threshold *. 100.);
          exit 0
      | regs ->
          Printf.printf "FAIL: %d bench(es) regressed by more than %.0f%%\n"
            (List.length regs) (!threshold *. 100.);
          exit 1)
  | _ ->
      prerr_endline usage;
      exit 2
