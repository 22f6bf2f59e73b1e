module Rng = Lk_util.Rng

type t = {
  prob : float array;  (* probability of staying in the cell *)
  alias : int array;   (* fallback index of the cell *)
  weights : float array;  (* normalized weights, for [probability] *)
  limit : int;  (* [Rng.rejection_limit] of the table size *)
}

let[@hot] create weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Alias.create: empty weights";
  for i = 0 to n - 1 do
    let w = Array.unsafe_get weights i in
    if w < 0. || not (Float.is_finite w) then
      invalid_arg "Alias.create: weights must be finite and non-negative"
  done;
  let total = Lk_util.Float_utils.sum weights in
  if total <= 0. then invalid_arg "Alias.create: total weight must be positive";
  let norm = Array.create_float n and scaled = Array.create_float n in
  let nf = float_of_int n in
  for i = 0 to n - 1 do
    let p = Array.unsafe_get weights i /. total in
    Array.unsafe_set norm i p;
    Array.unsafe_set scaled i (p *. nf)
  done;
  let prob = Array.make n 1. and alias = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set alias i i
  done;
  (* Vose pairing with two flat FIFO queues (head/tail cursors into int
     arrays) instead of [Queue.t]: the pairing order — and with it the
     prob/alias tables and every downstream sample stream — is exactly that
     of the boxed queues, without a cons cell per push.  Neither queue
     receives more than n pushes in all.  An index enters [small] at most
     once.  Each pairing step pops one [small] entry, and those come from
     the S initially small indices and from the M steps that moved their
     large index to [small]; so of the at most S + M steps, at most S push
     their large index back, and [large] receives at most (n − S) + S. *)
  let small = Array.make n 0 and large = Array.make n 0 in
  let sh = ref 0 and st = ref 0 and lh = ref 0 and lt = ref 0 in
  for i = 0 to n - 1 do
    if Array.unsafe_get scaled i < 1. then begin small.(!st) <- i; incr st end
    else begin large.(!lt) <- i; incr lt end
  done;
  while !sh < !st && !lh < !lt do
    let s = small.(!sh) and l = large.(!lh) in
    incr sh;
    incr lh;
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.;
    if scaled.(l) < 1. then begin small.(!st) <- l; incr st end
    else begin large.(!lt) <- l; incr lt end
  done;
  (* Remaining cells keep probability 1 (numerical leftovers). *)
  { prob; alias; weights = norm; limit = Rng.rejection_limit n }

let size t = Array.length t.prob
let probability t i = t.weights.(i)
let cell t i = (t.prob.(i), t.alias.(i))

(* One draw consumes the stream exactly as [Rng.int_bound rng (size t)]
   followed by [Rng.float rng]: the cell index by rejection below the
   stored limit, then the stay/alias coin, computed here as [Rng.float]
   defines it.  Only ints cross the module boundary, so nothing is boxed. *)
let[@inline] draw t rng =
  let v = ref (Rng.bits53 rng) in
  while !v >= t.limit do
    v := Rng.bits53 rng
  done;
  let i = !v mod Array.length t.prob in
  if float_of_int (Rng.bits53 rng) *. 0x1p-53 < Array.unsafe_get t.prob i then i
  else Array.unsafe_get t.alias i

let sample t rng = draw t rng

(* Batched draws: one tight loop over a caller-owned buffer, in exactly
   the per-draw order of [sample], so a batch of [k] and [k] single draws
   from equal rng states produce identical indices. *)
let[@hot] sample_many_into t rng buf =
  for j = 0 to Array.length buf - 1 do
    Array.unsafe_set buf j (draw t rng)
  done

let sample_many t rng k =
  if k < 0 then invalid_arg "Alias.sample_many: negative count";
  if k = 0 then [||]
  else begin
    let buf = Array.make k 0 in
    sample_many_into t rng buf;
    buf
  end
