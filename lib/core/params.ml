type quantile_impl = Reproducible | Naive

type t = {
  epsilon : float;
  tau : float;
  rho : float;
  beta : float;
  bits : int;
  tie_bits : int;
  sample_scale : float;
  quantile : quantile_impl;
  preset : string;
}

let check_epsilon epsilon =
  if not (epsilon > 0. && epsilon < 1.) then
    invalid_arg "Params: epsilon must be in (0, 1)"

let faithful ?(bits = Lk_repro.Domain.default_bits) ?(tie_bits = 16) ?(sample_scale = 1.)
    ?(quantile = Reproducible) epsilon =
  check_epsilon epsilon;
  let rho = epsilon ** 2. /. 18. in
  {
    epsilon;
    tau = epsilon ** 2. /. 5.;
    rho;
    beta = rho /. 2.;
    bits;
    tie_bits;
    sample_scale;
    quantile;
    preset = "faithful";
  }

let practical ?(bits = Lk_repro.Domain.default_bits) ?(tie_bits = 16) ?(sample_scale = 1.)
    ?(quantile = Reproducible) epsilon =
  check_epsilon epsilon;
  let rho = epsilon /. 2. in
  {
    epsilon;
    tau = epsilon /. 4.;
    rho;
    beta = rho /. 2.;
    bits;
    tie_bits;
    sample_scale;
    quantile;
    preset = "practical";
  }

let digest t =
  (* %h renders floats hex-exactly, so two params records collide on a
     digest iff every field is identical. *)
  Printf.sprintf "%s|%h|%h|%h|%h|%d|%d|%h|%s" t.preset t.epsilon t.tau t.rho
    t.beta t.bits t.tie_bits t.sample_scale
    (match t.quantile with Reproducible -> "rq" | Naive -> "naive")

let r_sample_size t =
  (* Lemma 4.2 with δ = ε², batch-amplified from failure 1/6 to ε/3. *)
  let delta = t.epsilon ** 2. in
  let batch = int_of_float (ceil (6. /. delta *. (log (1. /. delta) +. 1.))) in
  let batches = int_of_float (ceil (log (3. /. t.epsilon) /. log 6.)) in
  batch * max 1 batches

let rquantile_params t =
  { Lk_repro.Rquantile.tau = t.tau; rho = t.rho; beta = t.beta; bits = t.bits + t.tie_bits }

(* The tie-salt is a pure function of (seed, index) but costs a
   derivation-path hash; [?salt_cache] (a [Prep_arena] lane, [-1] =
   unfilled, always >= 0 once filled) memoizes it per index.  An index
   beyond the cache simply recomputes — same value either way. *)
let[@hot] encode_efficiency ?(salt_cache = [||]) t ~seed ~index eff =
  let salt =
    if index < Array.length salt_cache then begin
      let s = Array.unsafe_get salt_cache index in
      if s >= 0 then s
      else begin
        let s = Lk_repro.Domain.salt ~seed ~index in
        Array.unsafe_set salt_cache index s;
        s
      end
    end
    else Lk_repro.Domain.salt ~seed ~index
  in
  Lk_repro.Domain.refine ~tie_bits:t.tie_bits
    ~code:(Lk_repro.Domain.encode ~bits:t.bits eff)
    ~salt

let decode_efficiency t code =
  Lk_repro.Domain.decode ~bits:t.bits (Lk_repro.Domain.coarse ~tie_bits:t.tie_bits code)

let rq_sample_size t =
  Lk_repro.Rquantile.sample_size ~scale:t.sample_scale (rquantile_params t)

let large_profit_cutoff t = t.epsilon ** 2.
let copies_per_bucket t = int_of_float (floor (1. /. t.epsilon))

let theoretical_query_complexity t ~n =
  (* |R| + |Q| with |Q| ~ (3/2ε)·n_rq and n_rq from Theorem 4.5's formula
     over a domain of size 2^poly(bit-length of the weights) ~ n. *)
  let rq =
    Lk_repro.Rquantile.theoretical_sample_complexity
      { (rquantile_params t) with Lk_repro.Rquantile.bits = max 1 (int_of_float (Lk_util.Float_utils.log2 (float_of_int (max 2 n)))) }
  in
  float_of_int (r_sample_size t) +. (1.5 /. t.epsilon *. rq)
