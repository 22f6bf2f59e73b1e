type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Stafford's mix13 finalizer, the standard SplitMix64 output function. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = seed }
let of_int seed = create (Int64.of_int seed)
let copy t = { state = t.state }

type snapshot = int64

let snapshot t = t.state
let restore t s = t.state <- s
let snapshot_equal = Int64.equal
let snapshot_hash (s : snapshot) = Int64.to_int (mix64 s)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = create (int64 t)

let split_at t i =
  if i < 0 then invalid_arg "Rng.split_at: index must be non-negative";
  (* The i-th child is the generator [split] would produce after advancing
     a *copy* of [t] by [i] steps: the parent's state is never touched, so
     any number of children can be derived concurrently and reproducibly. *)
  create (mix64 (Int64.add t.state (Int64.mul golden_gamma (Int64.of_int (i + 1)))))

(* Derivation paths: each label folds its bytes into the running hash
   (FNV-1a style: xor the byte, multiply by the 64-bit FNV prime), then
   mix64 avalanches the result before the next label. *)
let[@inline] hash_byte h c = Int64.mul (Int64.logxor h (Int64.of_int c)) 0x100000001B3L

let hash_label h label =
  let h = ref h in
  for i = 0 to String.length label - 1 do
    h := hash_byte !h (Char.code (String.unsafe_get label i))
  done;
  mix64 !h

(* [hash_label h (string_of_int i)] without building the string: a sign,
   then the digits of [x = -|i|] (negated, so [min_int] cannot overflow),
   most significant first, read off by a descending power of ten [p]. *)
let hash_int_label h i =
  let h = ref (if i < 0 then hash_byte h (Char.code '-') else h) in
  let x = if i > 0 then -i else i and p = ref 1 in
  while x / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    h := hash_byte !h (Char.code '0' - (x / !p mod 10));
    p := !p / 10
  done;
  mix64 !h

let of_path seed labels = create (List.fold_left hash_label (mix64 seed) labels)

let of_path_int seed labels i =
  create (hash_int_label (List.fold_left hash_label (mix64 seed) labels) i)

let bits53 t = Int64.to_int (Int64.shift_right_logical (int64 t) 11)

let float t = Stdlib.float_of_int (bits53 t) *. 0x1p-53

let int_bound t n =
  if n <= 0 then invalid_arg "Rng.int_bound: bound must be positive";
  if n land (n - 1) = 0 then bits53 t land (n - 1)
  else
    (* Rejection sampling to avoid modulo bias. *)
    let max53 = 1 lsl 53 in
    let limit = max53 - (max53 mod n) in
    let rec draw () =
      let v = bits53 t in
      if v < limit then v mod n else draw ()
    in
    draw ()

let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int_bound t (hi - lo + 1)

let uniform t a b = a +. ((b -. a) *. float t)
let bool t = Int64.logand (int64 t) 1L = 1L
let bernoulli t p = float t < p

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.log (1. -. float t) /. rate

let pareto t ~alpha ~xmin =
  if alpha <= 0. || xmin <= 0. then invalid_arg "Rng.pareto: parameters must be positive";
  xmin /. ((1. -. float t) ** (1. /. alpha))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_bound t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int_bound t (Array.length a))

let sample_distinct t ~n ~k =
  if k > n then invalid_arg "Rng.sample_distinct: k > n";
  (* Floyd's algorithm: k iterations, set membership via Hashtbl. *)
  let seen = Hashtbl.create (2 * k) in
  for j = n - k to n - 1 do
    let r = int_bound t (j + 1) in
    let pick = if Hashtbl.mem seen r then j else r in
    Hashtbl.replace seen pick ()
  done;
  Det.sorted_keys seen
