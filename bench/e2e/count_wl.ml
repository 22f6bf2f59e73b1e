(* count-gkm: approximate #Knapsack of a fresh integer-weight instance per
   request — Gkm.count ~eps:0.25 through a counted Query_oracle.  It
   shares no kernel with the serving workloads. *)

module Rng = Lk_util.Rng
module Item = Lk_knapsack.Item
module Instance = Lk_knapsack.Instance
module Counters = Lk_oracle.Counters
module Query_oracle = Lk_oracle.Query_oracle
module Robp = Lk_counting.Robp
module Gkm = Lk_counting.Gkm
module Exact = Lk_counting.Exact
module Stopwatch = Lk_benchkit.Stopwatch

let name = "count-gkm"
let root = "counting.gkm.count"
let eps = 0.25

(* Every 4th count is checked against the exact count. *)
let check_every = 4
let slack = 1e-9
let warmup ~smoke = if smoke then 2 else 8
let span_names = [ root; "counting.robp.build"; "counting.gkm.count_in" ]

(* n weights w ~ U[1, 64], capacity floor(sum w / 3). *)
let inputs ~seed ~n labels =
  let rng = Common.rng seed (name :: labels) in
  let weights = Array.init n (fun _ -> Rng.int_range rng 1 64) in
  let capacity = Array.fold_left ( + ) 0 weights / 3 in
  let items =
    Array.map (fun w -> Item.make ~profit:(float_of_int w) ~weight:(float_of_int w)) weights
  in
  (weights, capacity, Instance.make items ~capacity:(float_of_int capacity))

let oracle inst = Query_oracle.of_instance ~counters:(Counters.create ()) inst

let result_equal (a : Gkm.result) (b : Gkm.result) =
  Float.equal a.estimate b.estimate
  && Float.equal a.lower b.lower
  && Float.equal a.upper b.upper
  && a.width = b.width
  && a.merges = b.merges
  && Float.equal a.delta b.delta

(* Re-time the program build and the counting kernel on the same instance;
   the kernel's result must equal the program's. *)
let decompose r inst (result : Gkm.result) ns =
  let top =
    Span.add r root ns
      ~counts:
        [
          ("counts", 1.);
          ("queries", float_of_int result.queries);
          ("width", float_of_int result.width);
          ("merges", float_of_int result.merges);
        ]
  in
  let o = oracle inst in
  let robp, build_ns = Stopwatch.time (fun () -> Robp.build o) in
  ignore (Span.add r ~parent:top "counting.robp.build" build_ns);
  let scratch = Lk_counting.Count_scratch.create () in
  let again, count_ns = Stopwatch.time (fun () -> Gkm.count_in ~eps scratch robp) in
  ignore (Span.add r ~parent:top "counting.gkm.count_in" count_ns);
  Span.finish_request r;
  result_equal again result

let run (cfg : Loop.config) =
  let seed = cfg.Loop.seed in
  let n = if cfg.Loop.smoke then 100 else 500 in
  let setup () =
    for k = 0 to warmup ~smoke:cfg.Loop.smoke - 1 do
      let _, _, inst = inputs ~seed ~n [ "warmup"; string_of_int k ] in
      ignore (Gkm.count ~eps (oracle inst))
    done
  in
  Loop.run cfg ~ops_per_request:1 ~setup (fun () i ->
      let weights, capacity, inst = inputs ~seed ~n [ "request"; string_of_int i ] in
      let o = oracle inst in
      let result, ns = Stopwatch.time (fun () -> Gkm.count ~eps o) in
      let billed = result.Gkm.queries = n && Counters.index_queries (Query_oracle.counters o) = n in
      let bracketed =
        i mod check_every <> 0
        ||
        let exact = Exact.count_robp (Robp.of_weights weights ~capacity) in
        result.Gkm.lower *. (1. -. slack) <= exact && exact <= result.Gkm.upper *. (1. +. slack)
      in
      let decomposed_ok =
        match cfg.Loop.tracer with None -> true | Some r -> decompose r inst result ns
      in
      { Loop.latency_ns = ns; failed = not (billed && bracketed && decomposed_ok) })

let layer_metrics r =
  let us name = Span.total_median r name /. 1e3 in
  let per_count key = Span.ratio (Span.count_sum r root key) (Span.count_sum r root "counts") in
  [
    ("counting.robp.build_us", us "counting.robp.build");
    ("counting.gkm.count_in_us", us "counting.gkm.count_in");
    ("counting.gkm.self_us", Span.self_median r root /. 1e3);
    ("counting.gkm.width", per_count "width");
    ("counting.gkm.merges", per_count "merges");
    ("oracle.counters.queries_per_count", per_count "queries");
  ]
