(* cold-start: every request brings a never-seen instance — Server.create
   over it plus one 512-query batch, so the preparation path dominates. *)

module Item = Lk_knapsack.Item
module Instance = Lk_knapsack.Instance
module Solution = Lk_knapsack.Solution
module Access = Lk_oracle.Access
module Counters = Lk_oracle.Counters
module Params = Lk_lcakp.Params
module Lca_kp = Lk_lcakp.Lca_kp
module Tilde = Lk_lcakp.Tilde
module Eps = Lk_lcakp.Eps
module Convert_greedy = Lk_lcakp.Convert_greedy
module Prep_arena = Lk_lcakp.Prep_arena
module Engine = Lk_parallel.Engine
module Server = Lk_serve.Server
module Batch = Lk_serve.Batch
module Trace = Lk_serve.Trace
module Stopwatch = Lk_benchkit.Stopwatch

let name = "cold-start"
let root = "serve.server.create_serve"

(* Every 8th request is re-answered from scratch. *)
let check_every = 8
let warmup ~smoke = if smoke then 2 else 8

let span_names =
  [
    root;
    "knapsack.instance.digest";
    "oracle.access.of_instance";
    "stats.alias.create";
    "lcakp.lca_kp.prepare";
    "lcakp.tilde.build";
    "lcakp.eps.compute";
    "oracle.access.sample";
    "lcakp.convert_greedy.run";
    "serve.batch.answer";
    "parallel.engine.dispatch";
  ]

let inputs ~seed ~n labels =
  let inst = Common.garbage_mix seed (name :: labels) ~n in
  let trace =
    Trace.generate ~seed:(Common.derived_seed seed (name :: "trace" :: labels)) ~sizes:[| n |]
      ~length:Common.batch ()
  in
  (inst, trace)

let items trace = Array.map (fun (e : Trace.entry) -> e.item) (Trace.entries trace)

let request ~seed inst trace =
  let server = Server.create ~params:Common.params ~seed [| inst |] in
  Server.serve ~jobs:1 server trace

(* The inputs Tilde.build hands to Eps.compute, rebuilt through the
   public oracle from the same preparation stream: the large items of the
   first sample (sorted by index) give p(L), and the small/garbage codes
   of the second sample, in reverse draw order, are the quantile input.
   [None] when the small mass is below epsilon (no EPS is computed). *)
let eps_inputs access ~seed ~fresh =
  let params = Common.params in
  let cutoff = Params.large_profit_cutoff params in
  let seen = Hashtbl.create 64 in
  for _ = 1 to Params.r_sample_size params do
    let i, it = Access.sample access fresh in
    if it.Item.profit > cutoff then Hashtbl.replace seen i it
  done;
  let large_profit =
    Lk_util.Det.sorted_bindings seen
    |> List.map (fun (_, it) -> it.Item.profit)
    |> Array.of_list |> Lk_util.Float_utils.sum
  in
  let small_mass = 1. -. large_profit in
  if small_mass < params.Params.epsilon then None
  else begin
    let n_rq = Params.rq_sample_size params in
    let draws = int_of_float (ceil (3. *. float_of_int n_rq /. (2. *. small_mass))) in
    let codes = ref [] in
    for _ = 1 to draws do
      let i, it = Access.sample access fresh in
      if it.Item.profit <= cutoff then
        codes := Params.encode_efficiency params ~seed ~index:i (Item.efficiency it) :: !codes
    done;
    Some (large_profit, Array.of_list !codes)
  end

let decision_equal (a : Convert_greedy.decision) (b : Convert_greedy.decision) =
  Solution.indices a.index_large = Solution.indices b.index_large
  && a.e_small_code = b.e_small_code
  && a.b_indicator = b.b_indicator
  && a.prefix_len = b.prefix_len
  && a.k_cut = b.k_cut

(* Re-time the layers of one cold request on the same instance and check
   that every decomposed output equals the program's. *)
let decompose r ~seed ~base inst trace (report : Server.report) ns =
  let time = Stopwatch.time in
  let params = Common.params in
  let top = Span.add r root ns ~counts:(Common.report_counts ~groups:1 report) in
  let digest, digest_ns = time (fun () -> Instance.digest inst) in
  ignore (Span.add r ~parent:top "knapsack.instance.digest" digest_ns);
  let access, access_ns = time (fun () -> Access.of_instance inst) in
  let of_instance = Span.add r ~parent:top "oracle.access.of_instance" access_ns in
  let profits = Instance.profits (Access.normalized access) in
  let _, alias_ns = time (fun () -> Lk_stats.Alias.create profits) in
  ignore (Span.add r ~parent:of_instance "stats.alias.create" alias_ns);
  let algo = Lca_kp.create params access ~seed in
  let fresh () = Common.prepare_fresh seed digest in
  let state, prepare_ns = time (fun () -> Lca_kp.prepare algo ~fresh:(fresh ())) in
  let prepare = Span.add r ~parent:top "lcakp.lca_kp.prepare" prepare_ns in
  let arena = Prep_arena.create () in
  let tilde, tilde_ns =
    time (fun () -> Tilde.build ~arena params access ~seed ~fresh:(fresh ()))
  in
  let samples = tilde.Tilde.samples_used in
  let build =
    Span.add r ~parent:prepare "lcakp.tilde.build" tilde_ns
      ~counts:[ ("samples", float_of_int samples) ]
  in
  let eps_ok =
    match eps_inputs access ~seed ~fresh:(fresh ()) with
    | None -> Eps.length tilde.Tilde.eps = 0
    | Some (large_profit, encoded_efficiencies) ->
        let scratch = Array.make (Array.length encoded_efficiencies) 0 in
        let eps, eps_ns =
          time (fun () -> Eps.compute ~scratch params ~seed ~large_profit ~encoded_efficiencies)
        in
        ignore (Span.add r ~parent:build "lcakp.eps.compute" eps_ns);
        eps.Eps.codes = tilde.Tilde.eps.Eps.codes
  in
  let probe = Common.rng seed [ name; "sample-probe" ] in
  let _, sample_ns = time (fun () -> Access.sample_many access probe samples) in
  ignore
    (Span.add r ~parent:build "oracle.access.sample" sample_ns
       ~counts:[ ("samples", float_of_int samples) ]);
  let decision, convert_ns = time (fun () -> Convert_greedy.run params tilde) in
  ignore (Span.add r ~parent:prepare "lcakp.convert_greedy.run" convert_ns);
  let idx = items trace in
  let answers, answer_ns = time (fun () -> Batch.answer algo state idx) in
  ignore
    (Span.add r ~parent:top "serve.batch.answer" answer_ns
       ~counts:[ ("answers", float_of_int (Array.length idx)) ]);
  let _, dispatch_ns =
    time (fun () -> Engine.run ~jobs:1 ~base ~trials:1 (fun ~index:_ ~rng:_ -> ()))
  in
  ignore (Span.add r ~parent:top "parallel.engine.dispatch" dispatch_ns);
  Span.finish_request r;
  answers = report.Server.responses
  && eps_ok
  && Tilde.equal tilde state.Lca_kp.tilde
  && decision_equal decision state.Lca_kp.decision

let run (cfg : Loop.config) =
  let seed = cfg.Loop.seed in
  let n = if cfg.Loop.smoke then 1_000 else 10_000 in
  let base = Common.rng seed [ name; "dispatch" ] in
  let setup () =
    for k = 0 to warmup ~smoke:cfg.Loop.smoke - 1 do
      let inst, trace = inputs ~seed ~n [ "warmup"; string_of_int k ] in
      ignore (request ~seed inst trace)
    done
  in
  Loop.run cfg ~ops_per_request:Common.batch ~setup (fun () i ->
      let inst, trace = inputs ~seed ~n [ "request"; string_of_int i ] in
      let report, ns = Stopwatch.time (fun () -> request ~seed inst trace) in
      let billed = Counters.index_queries report.Server.counters = Common.batch in
      let matches_reference =
        i mod check_every <> 0
        ||
        let p = Common.reference ~seed inst in
        Batch.answer_fold p.Common.algo p.Common.state (items trace) = report.Server.responses
      in
      let decomposed_ok =
        match cfg.Loop.tracer with
        | None -> true
        | Some r -> decompose r ~seed ~base inst trace report ns
      in
      { Loop.latency_ns = ns; failed = not (billed && matches_reference && decomposed_ok) })

let layer_metrics r =
  let us name = Span.total_median r name /. 1e3 in
  let requests = float_of_int (Span.requests r) in
  [
    ("knapsack.instance.digest_us", us "knapsack.instance.digest");
    ("oracle.access.of_instance_us", us "oracle.access.of_instance");
    ("stats.alias.create_us", us "stats.alias.create");
    ("lcakp.lca_kp.prepare_us", us "lcakp.lca_kp.prepare");
    ("lcakp.tilde.build_us", us "lcakp.tilde.build");
    ("lcakp.eps.compute_us", us "lcakp.eps.compute");
    ( "oracle.access.ns_per_sample",
      Span.ratio
        (Span.total_sum r "oracle.access.sample")
        (Span.count_sum r "oracle.access.sample" "samples") );
    ("lcakp.convert_greedy.run_us", us "lcakp.convert_greedy.run");
    ( "lcakp.tilde.samples_per_build",
      Span.ratio (Span.count_sum r "lcakp.tilde.build" "samples") requests );
    ("serve.batch.answer_us", us "serve.batch.answer");
    ("serve.batch.ns_per_answer", Common.ns_per_answer r);
    ("serve.server.self_us", Span.self_median r root /. 1e3);
    ("parallel.engine.dispatch_us", us "parallel.engine.dispatch");
  ]
  @ Common.accounting_metrics r ~root
