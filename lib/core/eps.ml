module Rng = Lk_util.Rng
module Rquantile = Lk_repro.Rquantile
module Instance = Lk_knapsack.Instance
module Item = Lk_knapsack.Item

type t = { codes : int array; q : float; trimmed : bool }

let empty = { codes = [||]; q = 0.; trimmed = false }
let length t = Array.length t.codes

let threshold t k =
  if k < 1 || k > length t then invalid_arg "Eps.threshold: index out of range";
  t.codes.(k - 1)

let compute ?scratch (params : Params.t) ~seed ~large_profit ~encoded_efficiencies =
  let epsilon = params.Params.epsilon in
  let small_mass = 1. -. large_profit in
  if small_mass < epsilon || Array.length encoded_efficiencies = 0 then empty
  else begin
    let q = (epsilon +. (epsilon ** 2. /. 2.)) /. small_mass in
    let tmax = int_of_float (floor (1. /. q)) in
    if tmax < 1 then empty
    else begin
      (* Threshold k is the (1 - k·q)-quantile.  The draws are sorted once
         for all tmax ranks, and for rQuantile so are its bootstrap chunks
         (in [scratch] when the caller passes the arena's). *)
      let ranks = Array.init tmax (fun idx -> 1. -. (float_of_int (idx + 1) *. q)) in
      let raw =
        match params.Params.quantile with
        | Params.Reproducible ->
            let rq = Params.rquantile_params params in
            let sample = Lk_repro.Rmedian.prepare ?scratch encoded_efficiencies in
            Array.mapi
              (fun idx p ->
                let shared = Rng.of_path_int seed [ "lca-kp"; "rquantile" ] (idx + 1) in
                Rquantile.run_prepared rq ~shared ~p sample)
              ranks
        | Params.Naive ->
            let empirical = Lk_stats.Empirical.of_samples encoded_efficiencies in
            Array.map (Lk_stats.Empirical.quantile empirical) ranks
      in
      (* Quantiles at decreasing ranks are non-increasing up to approximation
         noise; enforce monotonicity so downstream bucket logic is sound. *)
      for i = 1 to tmax - 1 do
        if raw.(i) > raw.(i - 1) then raw.(i) <- raw.(i - 1)
      done;
      let cutoff_code =
        Lk_repro.Domain.refine ~tie_bits:params.Params.tie_bits
          ~code:(Lk_repro.Domain.encode ~bits:params.Params.bits (epsilon ** 2.))
          ~salt:0
      in
      let t' = if raw.(tmax - 1) < cutoff_code then tmax - 1 else tmax in
      { codes = Array.sub raw 0 t'; q; trimmed = t' < tmax }
    end
  end

let is_eps_for (params : Params.t) ~seed ~instance t =
  let epsilon = params.Params.epsilon in
  let tlen = length t in
  let masses = Array.make (tlen + 1) 0. in
  for i = 0 to Instance.size instance - 1 do
    let item = Instance.item instance i in
    if Partition.classify ~epsilon item = Partition.Small then begin
      let code = Params.encode_efficiency params ~seed ~index:i (Item.efficiency item) in
      (* Bucket 0: eff >= ẽ_1; bucket k: ẽ_k > eff >= ẽ_{k+1}; bucket t: below ẽ_t. *)
      let rec bucket k = if k >= tlen then tlen else if code >= t.codes.(k) then k else bucket (k + 1) in
      let b = bucket 0 in
      masses.(b) <- masses.(b) +. item.Item.profit
    end
  done;
  let hi = epsilon +. (epsilon ** 2.) in
  let ok = ref true in
  for b = 0 to tlen - 1 do
    if not (masses.(b) >= epsilon && masses.(b) < hi) then ok := false
  done;
  if tlen >= 1 && not (masses.(tlen) < hi) then ok := false;
  (!ok, masses)
