module Access = Lk_oracle.Access
module Lca = Lk_lca.Lca
module Solution = Lk_knapsack.Solution
module Greedy = Lk_knapsack.Greedy

let trivial access =
  {
    Lca.name = "trivial-empty";
    n = Access.size access;
    fresh_run =
      (fun _fresh ->
        {
          Lca.answers = (fun _ -> false);
          solution = lazy Solution.empty;
          samples_used = 0;
        });
  }

let full_read access =
  let n = Access.size access in
  {
    Lca.name = "full-read-greedy-half";
    n;
    fresh_run =
      (fun _fresh ->
        (* Read every item through the counted oracle, then run the classic
           1/2-approximation deterministically: consistent by construction,
           at Θ(n) query cost per run. *)
        let items = Array.init n (fun i -> Access.query access i) in
        let instance = Lk_knapsack.Instance.make items ~capacity:(Access.capacity access) in
        let sol = Greedy.half_approx instance in
        {
          Lca.answers = (fun i -> Solution.mem i sol);
          solution = lazy sol;
          samples_used = n;
        });
  }

let wrap_lca_kp name params access ~seed =
  {
    Lca.name;
    n = Access.size access;
    fresh_run =
      (fun fresh ->
        (* One algorithm per run: harnesses fan runs out over domains, and
           an [Lca_kp.t]'s preparation arena must not be shared by two
           domains at once.  A run keeps no state between calls, so
           answers and the sampling bill are those of a shared instance. *)
        let algo = Lk_lcakp.Lca_kp.create params access ~seed in
        let state = Lk_lcakp.Lca_kp.run algo ~fresh in
        {
          Lca.answers = (fun i -> Lk_lcakp.Lca_kp.answer algo state i);
          solution = lazy (Lk_lcakp.Lca_kp.induced_solution algo state);
          samples_used = Lk_lcakp.Lca_kp.samples_per_query algo state;
        });
  }

let lca_kp params access ~seed = wrap_lca_kp "lca-kp" params access ~seed

let lca_kp_naive params access ~seed =
  let params = { params with Lk_lcakp.Params.quantile = Lk_lcakp.Params.Naive } in
  wrap_lca_kp "lca-kp-naive" params access ~seed
