(* lcakp_cli: work with Knapsack instance files through the LCA toolbox.

     lcakp_cli gen --family uniform -n 1000 -o inst.txt    # make an instance
     lcakp_cli stats inst.txt --epsilon 0.2                # L/S/G profile + OPT bracket
     lcakp_cli query inst.txt 0 17 42                      # LCA membership answers
     lcakp_cli solve inst.txt                              # materialize the LCA solution

   Instance format: '#' comments; first data line = capacity; then one
   "profit weight" pair per line (see Lk_workloads.Io). *)

module Rng = Lk_util.Rng
module Instance = Lk_knapsack.Instance
module Solution = Lk_knapsack.Solution
module Io = Lk_workloads.Io
module Gen = Lk_workloads.Gen
module Tbl = Lk_util.Tbl

(* An instance file that cannot be read or parsed is a bad input: print
   the message, which names the path and line, and exit 2. *)
let read_instance path =
  match Io.read path with
  | Ok instance -> instance
  | Error msg ->
      prerr_endline msg;
      exit Cli_exit.error

let make_algo ?sink epsilon seed scale path =
  let instance = read_instance path in
  let params =
    match Lk_lcakp.Params.practical ~sample_scale:scale epsilon with
    | params -> params
    | exception Invalid_argument msg ->
        prerr_endline msg;
        exit Cli_exit.error
  in
  let access = Lk_oracle.Access.of_instance ?sink instance in
  (instance, access, Lk_lcakp.Lca_kp.create params access ~seed:(Int64.of_int seed))

(* Machine-readable counter dump (--counters FILE): stdout stays exactly
   the human-facing report, the JSON goes to its own file. *)
let write_counters access = function
  | None -> ()
  | Some path ->
      Lk_benchkit.Json.write_file path
        (Lk_oracle.Counters.to_json (Lk_oracle.Access.counters access))

(* Observability outputs go through the shared Obs_cli plumbing (the same
   --trace/--profile vocabulary as experiments and loadgen).  The trace
   records the subcommand, the instance path as given, the indices and
   the options that define the run; --counters is an output, left out. *)
let obs_finish obs ~cmd ~epsilon ~seed ~scale ~path ~indices =
  Obs_cli.finish obs ~label:"lcakp_cli"
    ~argv:
      ((cmd :: path :: List.map string_of_int indices)
      @ [ Obs_cli.float_opt "epsilon" epsilon; Obs_cli.int_opt "seed" seed;
          Obs_cli.float_opt "sample-scale" scale ])
    ()

(* ---- query ---- *)

let run_query epsilon seed scale path indices counters trace profile =
  let obs = Obs_cli.setup ~trace ~profile () in
  let instance, access, algo = make_algo ~sink:obs.Obs_cli.sink epsilon seed scale path in
  (* Every index is checked before the first query draws a sample. *)
  let n = Instance.size instance in
  List.iter
    (fun i ->
      if i < 0 || i >= n then begin
        Printf.eprintf "lcakp_cli query: index %d is out of range: %s has %d items (0..%d)\n" i
          path n (n - 1);
        exit Cli_exit.error
      end)
    indices;
  let queried = if indices = [] then List.init n Fun.id else indices in
  let fresh = Rng.create (Int64.of_int ((seed * 31) + 1)) in
  List.iter
    (fun i ->
      let yes = Lk_lcakp.Lca_kp.query algo ~fresh i in
      Printf.printf "item %d: %s\n" i (if yes then "IN" else "OUT"))
    queried;
  write_counters access counters;
  obs_finish obs ~cmd:"query" ~epsilon ~seed ~scale ~path ~indices

(* ---- solve ---- *)

let run_solve epsilon seed scale path counters trace profile =
  let obs = Obs_cli.setup ~trace ~profile () in
  let _, access, algo = make_algo ~sink:obs.Obs_cli.sink epsilon seed scale path in
  let norm = Lk_oracle.Access.normalized access in
  let state = Lk_lcakp.Lca_kp.run algo ~fresh:(Rng.create (Int64.of_int ((seed * 31) + 1))) in
  let sol = Lk_lcakp.Lca_kp.induced_solution algo state in
  let bracket = Lk_knapsack.Reference.estimate norm in
  Printf.printf "# LCA-KP solution (epsilon driven, seed %d)\n" seed;
  Printf.printf "# |C| = %d, value = %.6f (normalized), weight = %.6f of K = %.6f\n"
    (Solution.cardinal sol) (Solution.profit norm sol) (Solution.weight norm sol)
    (Instance.capacity norm);
  Printf.printf "# OPT bracket: [%.6f, %.6f] (%s)\n" bracket.Lk_knapsack.Reference.lower
    bracket.Lk_knapsack.Reference.upper bracket.Lk_knapsack.Reference.method_used;
  Printf.printf "# samples drawn this run: %d\n" (Lk_lcakp.Lca_kp.samples_per_query algo state);
  List.iter (fun i -> Printf.printf "%d\n" i) (Solution.indices sol);
  write_counters access counters;
  obs_finish obs ~cmd:"solve" ~epsilon ~seed ~scale ~path ~indices:[]

(* ---- stats ---- *)

let run_stats epsilon path =
  let instance = read_instance path in
  let norm = Instance.normalize instance in
  let profile = Lk_lcakp.Partition.profile ~epsilon norm in
  let t = Tbl.create ~title:(Printf.sprintf "L/S/G profile at eps = %.3f" epsilon)
      [ "class"; "items"; "profit mass" ] in
  List.iter
    (fun (klass, mass, count) ->
      Tbl.add_row t
        [ Lk_lcakp.Partition.to_string klass; Tbl.cell_int count; Tbl.cell_float mass ])
    profile;
  Tbl.print t;
  let bracket = Lk_knapsack.Reference.estimate norm in
  Printf.printf "n = %d, capacity (normalized) = %.6f\n" (Instance.size norm)
    (Instance.capacity norm);
  Printf.printf "OPT bracket: [%.6f, %.6f] via %s (gap %.2f%%)\n"
    bracket.Lk_knapsack.Reference.lower bracket.Lk_knapsack.Reference.upper
    bracket.Lk_knapsack.Reference.method_used
    (100. *. Lk_knapsack.Reference.gap bracket)

(* ---- gen ---- *)

let run_gen family n capacity_fraction gen_seed output =
  match Gen.of_name family with
  | None ->
      Printf.eprintf "unknown family %S; known: %s\n" family
        (String.concat ", " (List.map Gen.name Gen.all_families));
      exit Cli_exit.error
  | Some _ when n < 1 ->
      Printf.eprintf "lcakp_cli gen: -n must be at least 1, got %d\n" n;
      exit Cli_exit.error
  | Some family ->
      let inst =
        Gen.generate ~capacity_fraction family (Rng.create (Int64.of_int gen_seed)) ~n
      in
      (match output with
      | Some path ->
          Io.write path inst;
          Printf.printf "wrote %d items to %s\n" n path
      | None -> print_string (Io.to_string inst))

(* ---- cmdliner plumbing ---- *)

open Cmdliner

let exits = Cli_exit.exits []

let epsilon_arg =
  Arg.(value & opt float 0.2 & info [ "epsilon"; "e" ] ~doc:"Approximation parameter.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Shared LCA random seed (Definition 2.2's r).")

let scale_arg =
  Arg.(value & opt float 0.1 & info [ "sample-scale" ] ~doc:"Sampling budget multiplier.")

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE" ~doc:"Instance file.")

let counters_arg =
  Arg.(value & opt (some Cli_exit.output_path) None
       & info [ "counters" ] ~docv:"FILE"
           ~doc:"Write the run's oracle query accounting (index queries, \
                 weighted samples) to $(docv) as \
                 deterministic JSON.  Stdout is unaffected.")

let query_cmd =
  let indices = Arg.(value & pos_right 0 int [] & info [] ~docv:"INDEX" ~doc:"Indices (default: all).") in
  Cmd.v
    (Cmd.info "query" ~exits ~doc:"Answer LCA membership queries (one stateless run per query)")
    Term.(const run_query $ epsilon_arg $ seed_arg $ scale_arg $ path_arg $ indices
          $ counters_arg $ Obs_cli.trace_arg $ Obs_cli.profile_arg)

let solve_cmd =
  Cmd.v
    (Cmd.info "solve" ~exits ~doc:"Materialize the solution one LCA run answers according to")
    Term.(const run_solve $ epsilon_arg $ seed_arg $ scale_arg $ path_arg $ counters_arg
          $ Obs_cli.trace_arg $ Obs_cli.profile_arg)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~exits ~doc:"Show the paper's L/S/G partition profile and an OPT bracket")
    Term.(const run_stats $ epsilon_arg $ path_arg)

let gen_cmd =
  let family = Arg.(value & opt string "uniform" & info [ "family" ] ~doc:"Workload family.") in
  let n = Arg.(value & opt int 1000 & info [ "n" ] ~doc:"Number of items.") in
  let cf = Arg.(value & opt float 0.4 & info [ "capacity-fraction" ] ~doc:"K as a fraction of total weight.") in
  let gseed = Arg.(value & opt int 1 & info [ "gen-seed" ] ~doc:"Generator seed.") in
  let out = Arg.(value & opt (some Cli_exit.output_path) None & info [ "o"; "output" ] ~doc:"Output file (default stdout).") in
  Cmd.v
    (Cmd.info "gen" ~exits ~doc:"Generate a synthetic instance file")
    Term.(const run_gen $ family $ n $ cf $ gseed $ out)

let () =
  let doc = "Local Computation Algorithms for Knapsack — instance tooling" in
  Cli_exit.exit
    (Cmd.eval
       (Cmd.group (Cmd.info "lcakp_cli" ~doc ~exits) [ query_cmd; solve_cmd; stats_cmd; gen_cmd ]))
