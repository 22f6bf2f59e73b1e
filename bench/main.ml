(* Wall-clock benchmark driver (experiment E10 plus one timing bench per
   experiment family), a thin CLI over Lk_benchkit.

     dune exec bench/main.exe                      # table to stdout
     dune exec bench/main.exe -- --out BENCH.json  # also write a result file
     dune exec bench/main.exe -- --smoke           # tiny quota (CI gate)

   The headline measurement: one stateless LCA-KP query costs the same
   regardless of instance size (its cost is the per-run sampling bill,
   (1/eps)^O(log* n)), while any full-read baseline scales linearly in n.
   Every query bench prices a full stateless run. *)

open Bechamel

module Rng = Lk_util.Rng
module Access = Lk_oracle.Access
module Gen = Lk_workloads.Gen
module Params = Lk_lcakp.Params
module Lca_kp = Lk_lcakp.Lca_kp
module Rmedian = Lk_repro.Rmedian
module Benchkit = Lk_benchkit.Benchkit

(* ---- fixtures (built once, outside the timed closures) ---- *)

let fixture_access n = Access.of_instance (Gen.generate Gen.Garbage_mix (Rng.create 7L) ~n)
let access_10k = fixture_access 10_000
let access_100k = fixture_access 100_000
let params_fast = Params.practical ~sample_scale:0.02 0.25
let params_tight = Params.practical ~sample_scale:0.02 0.15
let algo_10k = Lca_kp.create params_fast access_10k ~seed:42L
let algo_100k = Lca_kp.create params_fast access_100k ~seed:42L
let algo_10k_tight = Lca_kp.create params_tight access_10k ~seed:42L
(* Each timed closure owns its generator: one stream shared across benches
   would couple every bench's draws to how many iterations the previously
   run benches happened to execute (and to fixture building). *)
let prebuilt_state = Lca_kp.run algo_10k ~fresh:(Rng.create 1234L)

let small_int_instance =
  let rng = Rng.create 5L in
  Lk_knapsack.Int_instance.make
    ~profits:(Array.init 200 (fun _ -> Rng.int_range rng 1 1000))
    ~weights:(Array.init 200 (fun _ -> Rng.int_range rng 1 100))
    ~capacity:2000

let norm_10k = Access.normalized access_10k
let norm_100k = Access.normalized access_100k
let rq_params = { Rmedian.tau = 0.1; rho = 0.2; bits = 48 }

let rq_samples =
  (* a random sample over the 48-bit refined efficiency domain *)
  let rng = Rng.create 9L in
  Array.init 30_000 (fun _ -> Rng.bits53 rng land ((1 lsl 48) - 1))

let alias = Lk_stats.Alias.create (Lk_knapsack.Instance.profits norm_10k)

(* ---- benches ---- *)

let stage = Staged.stage

let lca_query_benches =
  let fresh_10k = Rng.create 1235L
  and fresh_100k = Rng.create 1236L
  and fresh_tight = Rng.create 1237L in
  [
    Test.make ~name:"query n=10k eps=0.25"
      (stage (fun () -> Lca_kp.query algo_10k ~fresh:fresh_10k 17));
    Test.make ~name:"query n=100k eps=0.25"
      (stage (fun () -> Lca_kp.query algo_100k ~fresh:fresh_100k 17));
    Test.make ~name:"query n=10k eps=0.15"
      (stage (fun () -> Lca_kp.query algo_10k_tight ~fresh:fresh_tight 17));
    Test.make ~name:"answer only (state reused)"
      (stage (fun () -> Lca_kp.answer algo_10k prebuilt_state 17));
  ]

let baseline_benches =
  [
    Test.make ~name:"full-read greedy-half n=10k"
      (stage (fun () -> Lk_knapsack.Greedy.half_approx norm_10k));
    Test.make ~name:"full-read greedy-half n=100k"
      (stage (fun () -> Lk_knapsack.Greedy.half_approx norm_100k));
  ]

let repro_benches =
  [
    Test.make ~name:"rquantile n=30k (48-bit domain)"
      (stage (fun () -> Rmedian.quantile rq_params ~shared:(Rng.create 3L) ~p:0.5 rq_samples));
    Test.make ~name:"naive quantile n=30k"
      (stage (fun () ->
           Lk_stats.Empirical.quantile (Lk_stats.Empirical.of_samples rq_samples) 0.5));
  ]

let tie_ablation_benches =
  let params_no_tie = Params.practical ~tie_bits:0 ~sample_scale:0.02 0.25 in
  let algo_no_tie = Lca_kp.create params_no_tie access_10k ~seed:42L in
  let fresh_tie = Rng.create 1238L and fresh_no_tie = Rng.create 1239L in
  [
    Test.make ~name:"query with tie-break (16 bits)"
      (stage (fun () -> Lca_kp.query algo_10k ~fresh:fresh_tie 17));
    Test.make ~name:"query paper-verbatim (tie_bits=0)"
      (stage (fun () -> Lca_kp.query algo_no_tie ~fresh:fresh_no_tie 17));
  ]

let solver_benches =
  let fi = Lk_knapsack.Int_instance.to_float small_int_instance in
  [
    Test.make ~name:"branch&bound n=200" (stage (fun () -> Lk_knapsack.Branch_bound.value fi));
    Test.make ~name:"nemhauser-ullmann n=200"
      (stage (fun () -> Lk_knapsack.Nemhauser_ullmann.value fi));
    Test.make ~name:"fptas eps=0.1 n=200"
      (stage (fun () -> Lk_knapsack.Fptas.value ~epsilon:0.1 fi));
  ]

let kernel_benches =
  (* The workspace-reusing FPTAS, and batched alias sampling vs a
     sample() loop. *)
  let fws = Lk_knapsack.Fptas.create_workspace () in
  let fi = Lk_knapsack.Int_instance.to_float small_int_instance in
  let fresh_loop = Rng.create 1246L and fresh_batch = Rng.create 1247L in
  let batch = Array.make 1024 0 in
  [
    Test.make ~name:"fptas solve (workspace) eps=0.1 n=200"
      (stage (fun () -> Lk_knapsack.Fptas.solve_in fws ~epsilon:0.1 fi));
    Test.make ~name:"alias sample x1024 (loop)"
      (stage (fun () ->
           for _ = 1 to 1024 do
             ignore (Lk_stats.Alias.sample alias fresh_loop)
           done));
    Test.make ~name:"alias sample x1024 (batched)"
      (stage (fun () -> Lk_stats.Alias.sample_many_into alias fresh_batch batch));
  ]

let prepare_benches =
  (* PR8 flat-kernel overhaul: the cold-preparation path (Tilde.build +
     CONVERT-GREEDY through Lca_kp.run) across the instance-size x
     epsilon grid, plus the constructions it leans on: the alias table,
     the instance digest a server keys its prepared states on, and the EPS
     thresholds (rQuantile over one prepared sample).  Each bench reuses
     one persistent algo so the preparation arena is warm. *)
  let algo_100k_tight = Lca_kp.create params_tight access_100k ~seed:42L in
  let fresh_p10 = Rng.create 1250L
  and fresh_p10t = Rng.create 1251L
  and fresh_p100 = Rng.create 1252L
  and fresh_p100t = Rng.create 1253L in
  let profits_10k = Lk_knapsack.Instance.profits norm_10k in
  (* An EPS sample as Tilde.build draws it at n=10k eps=0.2 when no item
     is large: 3/2 n_rq weighted draws, encoded with their tie salts. *)
  let params_eps = Params.practical ~sample_scale:0.02 0.2 in
  let eps_codes =
    let fresh = Rng.create 1255L in
    Array.init
      (3 * Params.rq_sample_size params_eps / 2)
      (fun _ ->
        let i, it = Access.sample access_10k fresh in
        Params.encode_efficiency params_eps ~seed:42L ~index:i (Lk_knapsack.Item.efficiency it))
  in
  let eps_scratch = Array.make (Array.length eps_codes) 0 in
  let fws = Lk_knapsack.Fptas.create_workspace () in
  let fi = Lk_knapsack.Int_instance.to_float small_int_instance in
  [
    Test.make ~name:"cold prepare n=10k eps=0.25"
      (stage (fun () -> Lca_kp.run algo_10k ~fresh:fresh_p10));
    Test.make ~name:"cold prepare n=10k eps=0.15"
      (stage (fun () -> Lca_kp.run algo_10k_tight ~fresh:fresh_p10t));
    Test.make ~name:"cold prepare n=100k eps=0.25"
      (stage (fun () -> Lca_kp.run algo_100k ~fresh:fresh_p100));
    Test.make ~name:"cold prepare n=100k eps=0.15"
      (stage (fun () -> Lca_kp.run algo_100k_tight ~fresh:fresh_p100t));
    Test.make ~name:"alias build n=10k"
      (stage (fun () -> Lk_stats.Alias.create profits_10k));
    Test.make ~name:"instance digest n=10k"
      (stage (fun () -> Lk_knapsack.Instance.digest norm_10k));
    Test.make ~name:"instance digest n=100k"
      (stage (fun () -> Lk_knapsack.Instance.digest norm_100k));
    Test.make ~name:"eps compute n=10k eps=0.2"
      (stage (fun () ->
           Lk_lcakp.Eps.compute ~scratch:eps_scratch params_eps ~seed:42L ~large_profit:0.
             ~encoded_efficiencies:eps_codes));
    Test.make ~name:"fptas solve (workspace) eps=0.25 n=200"
      (stage (fun () -> Lk_knapsack.Fptas.solve_in fws ~epsilon:0.25 fi));
  ]

let extension_benches =
  let model =
    { Lk_ext.Oblivious.family = Gen.Garbage_mix; n = 10_000; capacity_fraction = 0.4 }
  in
  let obl = Lk_ext.Oblivious.create model access_10k ~seed:42L in
  let fresh_hybrid = Rng.create 1240L in
  [
    Test.make ~name:"oblivious query" (stage (fun () -> Lk_ext.Oblivious.query obl 17));
    Test.make ~name:"hybrid full run"
      (stage (fun () -> Lk_ext.Hybrid.create model access_10k ~seed:42L ~fresh:fresh_hybrid));
    Test.make ~name:"heavy-hitters 20k samples"
      (stage
         (let hh_params = { Lk_repro.Heavy_hitters.threshold = 0.05; rho = 0.2 } in
          let sample = Array.init 20_000 (fun i -> i mod 37) in
          fun () -> Lk_repro.Heavy_hitters.run hh_params ~shared:(Rng.create 3L) sample));
  ]

let counting_benches =
  (* PR9 counting pillar: the two approximate counters and the exact
     engines on frozen programs (of_weights / count_in — bench/ is outside
     the counting-discipline fence), one persistent scratch per size so
     the numbers price the kernels, not allocation. *)
  let robp_of n =
    let rng = Rng.create 94L in
    let w = Array.init n (fun _ -> Rng.int_range rng 1 64) in
    Lk_counting.Robp.of_weights w ~capacity:(Array.fold_left ( + ) 0 w / 3)
  in
  let robp_36 = robp_of 36 in
  let robp_200 = robp_of 200 in
  let robp_1000 = robp_of 1000 in
  let scratch = Lk_counting.Count_scratch.create () in
  let sampler = Lk_counting.Sampler.of_robp robp_36 in
  let fresh_draw = Rng.create 1254L in
  [
    Test.make ~name:"gkm count n=200 eps=0.25"
      (stage (fun () -> Lk_counting.Gkm.count_in ~eps:0.25 scratch robp_200));
    Test.make ~name:"gkm count n=1000 eps=0.25"
      (stage (fun () -> Lk_counting.Gkm.count_in ~eps:0.25 scratch robp_1000));
    Test.make ~name:"gkm count n=1000 width=64"
      (stage (fun () ->
           Lk_counting.Gkm.count_in ~width:64 ~eps:0.25 scratch robp_1000));
    Test.make ~name:"svv count n=64 eps=0.5"
      (stage
         (let robp_64 = robp_of 64 in
          fun () -> Lk_counting.Svv.count_in ~eps:0.5 scratch robp_64));
    Test.make ~name:"exact dp count n=200"
      (stage (fun () -> Lk_counting.Exact.count_robp robp_200));
    Test.make ~name:"meet-middle count n=36"
      (stage (fun () -> Lk_counting.Exact.meet_middle robp_36));
    Test.make ~name:"sampler draw n=36"
      (stage (fun () -> Lk_counting.Sampler.draw sampler fresh_draw));
  ]

let substrate_benches =
  let fresh_alias = Rng.create 1241L
  and fresh_orgame = Rng.create 1242L
  and fresh_maximal = Rng.create 1243L
  and fresh_iky = Rng.create 1244L in
  [
    Test.make ~name:"weighted sample (alias)"
      (stage (fun () -> Lk_stats.Alias.sample alias fresh_alias));
    Test.make ~name:"or-game trial n=4096 q=n/3"
      (stage (fun () ->
           Lk_hardness.Reduction.measured_success Lk_hardness.Reduction.Exact ~n:4096
             ~budget:1365 ~trials:1 fresh_orgame));
    Test.make ~name:"maximal-hard play n=1100 q=n/11"
      (stage (fun () ->
           Lk_hardness.Maximal_hard.play ~n:1100 ~budget:100 ~trials:1 fresh_maximal));
    Test.make ~name:"iky value-approx eps=0.25"
      (stage (fun () ->
           Lk_lcakp.Iky_value.approximate_opt params_fast access_10k ~seed:2L ~fresh:fresh_iky));
  ]

let groups =
  [
    ("E10-lca-query", lca_query_benches);
    ("E10-baselines", baseline_benches);
    ("E7-reproducible", repro_benches);
    ("ablation-tie-bits", tie_ablation_benches);
    ("exact-solvers", solver_benches);
    ("P2-kernels", kernel_benches);
    ("P3-prepare", prepare_benches);
    ("P4-counting", counting_benches);
    ("E11-extensions", extension_benches);
    ("substrates", substrate_benches);
  ]

(* ---- driver ---- *)

let usage =
  "main [--quota SECONDS] [--limit N] [--label STR] [--out FILE] [--smoke] \
   [--only PREFIX]"

let () =
  let quota = ref Benchkit.default_quota_s in
  let limit = ref Benchkit.default_limit in
  let label = ref "E10: wall-clock" in
  let out = ref "" in
  let smoke = ref false in
  let only = ref "" in
  Arg.parse
    [
      ("--quota", Arg.Set_float quota, "SECONDS  per-bench time quota (default 0.8)");
      ("--limit", Arg.Set_int limit, "N  per-bench iteration cap (default 300)");
      ("--label", Arg.Set_string label, "STR  label recorded in the result file");
      ("--out", Arg.Set_string out, "FILE  also write results as JSON");
      ( "--smoke",
        Arg.Set smoke,
        "  tiny quota/limit: exercises the whole pipeline, numbers are noise" );
      ( "--only",
        Arg.Set_string only,
        "PREFIX  run only the bench groups whose name starts with PREFIX" );
    ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    usage;
  if !smoke then begin
    quota := 0.01;
    limit := 8;
    label := !label ^ " (smoke)"
  end;
  let selected =
    match !only with
    | "" -> groups
    | p -> List.filter (fun (name, _) -> String.starts_with ~prefix:p name) groups
  in
  if selected = [] then begin
    Printf.eprintf "--only %S matches no bench group (known: %s)\n" !only
      (String.concat ", " (List.map fst groups));
    exit 2
  end;
  let grouped =
    Test.make_grouped ~name:"lca-knapsack"
      (List.map (fun (name, benches) -> Test.make_grouped ~name benches) selected)
  in
  let file = Benchkit.measure ~limit:!limit ~quota_s:!quota ~label:!label grouped in
  print_string (Benchkit.render_table file);
  if !out <> "" then Benchkit.save !out file;
  if not !smoke then
    print_endline
      "\nReading: LCA-KP query time is flat from n=10k to n=100k (sublinearity, Theorem 4.1)\n\
       while the full-read baseline scales with n; answering from a reused state prices\n\
       MAPPING-GREEDY plus one index query only; rQuantile costs one extra sort-sized\n\
       pass over the naive quantile."
