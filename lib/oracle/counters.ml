type t = {
  mutable index_queries : int;
  mutable weighted_samples : int;
}

let create () = { index_queries = 0; weighted_samples = 0 }

let index_queries t = t.index_queries
let weighted_samples t = t.weighted_samples
let total t = t.index_queries + t.weighted_samples
let charge_index_query t = t.index_queries <- t.index_queries + 1
let charge_weighted_sample t = t.weighted_samples <- t.weighted_samples + 1

let charge_weighted_samples t n =
  if n < 0 then invalid_arg "Counters.charge_weighted_samples: negative count";
  t.weighted_samples <- t.weighted_samples + n

let charge_index_queries t n =
  if n < 0 then invalid_arg "Counters.charge_index_queries: negative count";
  t.index_queries <- t.index_queries + n

let reset t =
  t.index_queries <- 0;
  t.weighted_samples <- 0

let add ~into t =
  into.index_queries <- into.index_queries + t.index_queries;
  into.weighted_samples <- into.weighted_samples + t.weighted_samples

let equal a b =
  a.index_queries = b.index_queries && a.weighted_samples = b.weighted_samples

let to_json t =
  Lk_benchkit.Json.Obj
    [
      ("index_queries", Lk_benchkit.Json.Num (float_of_int t.index_queries));
      ("weighted_samples", Lk_benchkit.Json.Num (float_of_int t.weighted_samples));
      ("total", Lk_benchkit.Json.Num (float_of_int (total t)));
    ]
