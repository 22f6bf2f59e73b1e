type report = {
  runs : int;
  probes : int;
  mean_query_agreement : float;
  worst_query_agreement : float;
  solution_match : float;
  distinct_solutions : int;
  mean_samples_per_run : float;
}

let measure ?jobs (lca : Lca.t) ~probes ~runs ~fresh =
  if runs < 2 then invalid_arg "Consistency.measure: need at least 2 runs";
  if Array.length probes = 0 then invalid_arg "Consistency.measure: need probe indices";
  (* Run [i] draws from the index-derived stream [split_at fresh i], so the
     report is identical for every [jobs]. *)
  let executions =
    Lk_parallel.Engine.run ?jobs ~base:fresh ~trials:runs (fun ~index:_ ~rng ->
        lca.Lca.fresh_run rng)
  in
  (* Per-probe agreement. *)
  let n = float_of_int runs in
  let agreements =
    Array.map
      (fun i ->
        let yes =
          Array.fold_left
            (fun acc run -> if run.Lca.answers i then acc + 1 else acc)
            0 executions
        in
        let f = float_of_int yes /. n in
        (f *. f) +. ((1. -. f) *. (1. -. f)))
      probes
  in
  let solutions = Array.map (fun run -> Lazy.force run.Lca.solution) executions in
  let keys = Array.map (fun s -> String.concat "," (List.map string_of_int (Lk_knapsack.Solution.indices s))) solutions in
  let freq = Hashtbl.create 16 in
  Array.iter
    (fun k -> Hashtbl.replace freq k (1 + Option.value ~default:0 (Hashtbl.find_opt freq k)))
    keys;
  let match_rate =
    List.fold_left
      (fun acc (_, c) -> acc +. ((float_of_int c /. n) ** 2.))
      0.
      (Lk_util.Det.sorted_bindings freq)
  in
  {
    runs;
    probes = Array.length probes;
    mean_query_agreement = Lk_util.Float_utils.mean agreements;
    worst_query_agreement = Array.fold_left Float.min agreements.(0) agreements;
    solution_match = match_rate;
    distinct_solutions = Hashtbl.length freq;
    mean_samples_per_run =
      Lk_util.Float_utils.mean (Array.map (fun r -> float_of_int r.Lca.samples_used) executions);
  }

let order_oblivious (lca : Lca.t) ~probes ~fresh =
  let run = lca.Lca.fresh_run fresh in
  let forward = Array.map run.Lca.answers probes in
  let backward = Array.make (Array.length probes) false in
  for i = Array.length probes - 1 downto 0 do
    backward.(i) <- run.Lca.answers probes.(i)
  done;
  let repeated = Array.map run.Lca.answers probes in
  forward = backward && forward = repeated
