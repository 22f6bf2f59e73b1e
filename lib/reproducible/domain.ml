let default_bits = 32
let size bits = 1 lsl bits

let encode ?(bits = default_bits) e =
  if not (e >= 0.) then invalid_arg "Domain.encode: efficiency must be non-negative";
  let n = size bits in
  if e = infinity then n - 1
  else
    let x = e /. (1. +. e) in
    Int.min (n - 1) (int_of_float (x *. float_of_int n))

let decode ?(bits = default_bits) c =
  let n = size bits in
  if c < 0 || c >= n then invalid_arg "Domain.decode: code out of range";
  let x = (float_of_int c +. 0.5) /. float_of_int n in
  x /. (1. -. x)

let exponent_bits bits =
  (* Smallest b with 2^b > bits, i.e. enough to index exponents 0..bits. *)
  let rec go b = if size b > bits then b else go (b + 1) in
  go 1

let refine ~tie_bits ~code ~salt =
  if tie_bits = 0 then code else (code lsl tie_bits) lor (salt land (size tie_bits - 1))

let coarse ~tie_bits code = if tie_bits = 0 then code else code asr tie_bits

let salt ~seed ~index =
  let rng = Lk_util.Rng.of_path_int seed [ "tie" ] index in
  Int64.to_int (Int64.shift_right_logical (Lk_util.Rng.int64 rng) 2)
