(** GKM-style approximate counting of ROBP accepting paths
    (Gopalan–Klivans–Meka, arXiv:1008.3187) by per-layer state
    merging/rounding under a width budget.

    The exact layer-[i] state is the CDF [F_i(x) = #{subsets of items 0..i-1
    with weight <= x}].  This counter keeps a {e sparsified} CDF: sorted
    breakpoints with cumulative counts, where a breakpoint survives only if
    its cumulative count exceeds the last kept one by a factor [(1 + d)] —
    so at most [O(log_(1+d) 2^i)] states per layer.  Each layer is one
    pass: an ascending merge of the "skip" copy and the "take" shift of
    the sparsified predecessor (two pointers, flat buffers) computes the
    true successor CDF and sparsifies it as it goes.  When a [width] budget
    is given and the kept set still exceeds it, the layer's [d] doubles
    until it fits, re-sparsifying the raw merge that pass saved.

    Dropping breakpoints only ever {e under}-approximates, and by at most
    [(1 + d)] per layer, so the result carries a certified two-sided
    bracket: [lower <= Z <= upper] with
    [upper = lower * prod_i (1 + d_i)], clamped to [2^n].  With the
    default per-layer [d = eps / (2 (n + 1))] the geometric-mean
    [estimate] is within [e^(+-eps/4)], comfortably inside [(1 +- eps)].
    Everything is branch-deterministic: same program, same [eps], same
    [width] — bit-identical result on any domain count. *)

type result = {
  estimate : float;  (** geometric mean of the certified bracket *)
  lower : float;  (** certified [lower <= Z] *)
  upper : float;  (** certified [Z <= upper] *)
  width : int;  (** widest kept layer actually seen *)
  width_budget : int;  (** the cap applied ([max_int] when none given) *)
  merges : int;  (** breakpoints dropped by rounding, summed over layers *)
  delta : float;  (** coarsest per-layer rounding ratio actually used *)
  queries : int;  (** index queries spent building the program ([= n]) *)
}

(** [count ?sink ?width ~eps oracle] — builds the ROBP (exactly [n]
    counted queries) and counts, inside a ["gkm-count"] phase bracket.
    Raises [Invalid_argument] unless [eps] is in [(0, 1]] and
    [width >= 1] when given, and when a [width] budget cannot be met
    because the kept counts overflow the float range ([2^1024]): past
    that, doubling [d] no longer drops any breakpoint. *)
val count :
  ?sink:Lk_obs.Obs.sink ->
  ?width:int ->
  eps:float ->
  Lk_oracle.Query_oracle.t ->
  result

(** [count_in ?width ~eps scratch robp] — the kernel on a frozen program,
    reusing [scratch] ([queries] is reported as [Robp.size robp]).  Raises
    as {!count}. *)
val count_in : ?width:int -> eps:float -> Count_scratch.t -> Robp.t -> result
