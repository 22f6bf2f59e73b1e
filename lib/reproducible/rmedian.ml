module Rng = Lk_util.Rng
module Empirical = Lk_stats.Empirical
module Dkw = Lk_stats.Dkw
module Fu = Lk_util.Float_utils

type params = { tau : float; rho : float; bits : int }

let base_bits = 6
let bootstrap_chunks = 64
let min_chunk = 64

let validate p =
  if not (p.tau > 0. && p.tau <= 0.5) then invalid_arg "Rmedian: tau must be in (0, 1/2]";
  if not (p.rho > 0. && p.rho < 1.) then invalid_arg "Rmedian: rho must be in (0, 1)";
  if p.bits < 1 || p.bits > 62 then invalid_arg "Rmedian: bits must be in [1, 62]"

let rec recursion_depth bits =
  if bits <= base_bits then 1 else 1 + recursion_depth (Domain.exponent_bits bits)

let sample_size ?(scale = 1.) p =
  validate p;
  (* Reproducibility needs the empirical CDF within ~ρ·τ of truth: a run
     pair disagrees when the shared threshold q̂ (drawn in a τ/2-wide
     window) falls inside the two runs' CDF gap at a crossing candidate, so
     the gap must be a ρ-fraction of the window.  This is the source of the
     1/(ρ²τ²) factor in Theorem 2.7. *)
  let confidence = 1. -. (p.rho /. 2.) in
  let dkw = Dkw.samples_needed ~epsilon:(p.rho *. p.tau /. 3.) ~confidence in
  max 512 (int_of_float (ceil (scale *. float_of_int dkw)))

let theoretical_sample_complexity p =
  let log_star = Fu.iterated_log2 (2. ** float_of_int p.bits) in
  1. /. (p.tau ** 2. *. p.rho ** 2.) *. ((3. /. (p.tau ** 2.)) ** float_of_int log_star)

(* Draw the shared random threshold near rank [p]: the pivotal trick — the
   target rank carries the shared randomness, so two runs disagree only when
   some domain point's empirical CDF straddles q̂. *)
let draw_threshold ~shared ~tau p =
  let q = p -. (tau /. 4.) +. (tau /. 2. *. Rng.float shared) in
  Fu.clamp ~lo:1e-9 ~hi:1. q

(* A sample prepared once for any number of quantile calls: its sorted
   empirical distribution and, from [bootstrap_chunks * min_chunk] draws
   up (where the bootstrap runs), its first [bootstrap_chunks * chunk]
   draws cut into [bootstrap_chunks] slices of [chunks], each sorted.
   Every call reads the same sorted slices, so they are sorted once
   instead of once per call. *)
type sample = { empirical : Empirical.t; chunks : int array; chunk : int }

let prepare ?scratch samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Rmedian.prepare: empty sample";
  if n < bootstrap_chunks * min_chunk then
    { empirical = Empirical.of_samples samples; chunks = [||]; chunk = 0 }
  else begin
    let chunk = n / bootstrap_chunks in
    let used = chunk * bootstrap_chunks in
    (* One sort serves the empirical distribution and every chunk: each
       draw is tagged with its chunk (the draws past the last chunk with
       [bootstrap_chunks]), the sample is sorted once carrying the tags,
       and the sorted draws are dealt out to their chunks in order, so
       each chunk comes out sorted. *)
    let sorted = Array.copy samples and tags = Bytes.create n in
    for c = 0 to bootstrap_chunks - 1 do
      Bytes.unsafe_fill tags (c * chunk) chunk (Char.unsafe_chr c)
    done;
    Bytes.unsafe_fill tags used (n - used) (Char.unsafe_chr bootstrap_chunks);
    Lk_util.Int_sort.sort_tagged sorted tags;
    let chunks =
      match scratch with Some b when Array.length b >= n -> b | _ -> Array.make used 0
    in
    let next = Array.make bootstrap_chunks 0 in
    for c = 0 to bootstrap_chunks - 1 do
      next.(c) <- c * chunk
    done;
    for i = 0 to n - 1 do
      let c = Char.code (Bytes.unsafe_get tags i) in
      if c < bootstrap_chunks then begin
        let slot = Array.unsafe_get next c in
        Array.unsafe_set chunks slot (Array.unsafe_get sorted i);
        Array.unsafe_set next c (slot + 1)
      end
    done;
    { empirical = Empirical.of_sorted sorted; chunks; chunk }
  end

let rec quantile_sample params ~shared ~p sample =
  let e = sample.empirical in
  let q_hat = draw_threshold ~shared ~tau:params.tau p in
  if params.bits <= base_bits then
    (* Base case: tiny domain, the random threshold alone suffices (at most
       2^base_bits straddle candidates). *)
    Empirical.quantile e q_hat
  else begin
    (* Heavy-point shortcut: a domain point carrying mass >= θ̂ across q̂ is
       detected identically by both runs and returned verbatim.  The cutoff
       randomization is the {!Heavy_hitters} primitive.  The point straddling
       q̂ (cdf_strict < q̂ <= cdf) is unique — distinct-value runs partition
       the sorted sample, and only the run covering rank ⌈q̂·n⌉ qualifies —
       so one O(log n) quantile lookup plus a mass probe replaces the former
       scan of every heavy point, with the same result. *)
    let theta_hat =
      Heavy_hitters.cutoff
        { Heavy_hitters.threshold = params.tau /. 2.; rho = params.rho }
        ~shared
    in
    let candidate = Empirical.quantile e q_hat in
    let candidate_heavy = Empirical.mass e candidate >= theta_hat in
    (* Shared randomness is consumed in a fixed order regardless of the
       branch taken, so parallel runs stay aligned. *)
    let boundary_shift = Rng.float shared in
    let rec_shared = Rng.split shared in
    let spacing =
      if sample.chunk = 0 then 1
      else begin
        (* Bootstrap the width of the q̂±τ/4 quantile interval on the sorted
           chunks, then pick its scale exponent by a *recursive*
           reproducible median over the exponent domain [0 .. bits] — the
           log* step.  The shared [boundary_shift] randomizes the
           power-of-two rounding boundary so no width distribution can sit
           exactly on an exponent edge. *)
        let chunk = sample.chunk in
        let widths = Array.make bootstrap_chunks 0 in
        for c = 0 to bootstrap_chunks - 1 do
          let pos = c * chunk in
          let a =
            Empirical.quantile_sorted_range sample.chunks ~pos ~len:chunk
              (q_hat -. (params.tau /. 4.))
          in
          let b =
            Empirical.quantile_sorted_range sample.chunks ~pos ~len:chunk
              (q_hat +. (params.tau /. 4.))
          in
          let w = float_of_int (max 1 (b - a)) in
          widths.(c) <- max 0 (int_of_float (floor (Fu.log2 w +. boundary_shift)))
        done;
        let rec_params =
          { tau = 0.25; rho = params.rho /. 2.; bits = Domain.exponent_bits params.bits }
        in
        let j = quantile rec_params ~shared:rec_shared ~p:0.5 widths in
        max 1 (1 lsl (max 0 (min 61 j - 1)))
      end
    in
    let offset = if spacing = 1 then 0 else Rng.int_bound shared spacing in
    if candidate_heavy then candidate
    else begin
      let size = Domain.size params.bits in
      let nth m = min (size - 1) (offset + (m * spacing)) in
      let count = ((size - offset + spacing - 1) / spacing) + 1 in
      match Empirical.crossing e ~grid:(count, nth) q_hat with
      | Some g -> g
      | None ->
          (* Unreachable: the last grid point clamps to the domain top,
             whose empirical CDF is 1 >= q̂. *)
          Empirical.quantile e q_hat
    end
  end

and quantile params ~shared ~p samples =
  validate params;
  if Array.length samples = 0 then invalid_arg "Rmedian.quantile: empty sample";
  quantile_sample params ~shared ~p (prepare samples)

let quantile_prepared params ~shared ~p sample =
  validate params;
  quantile_sample params ~shared ~p sample

let median params ~shared samples = quantile params ~shared ~p:0.5 samples
