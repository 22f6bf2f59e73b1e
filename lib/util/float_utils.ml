let approx_eq ?(eps = 1e-9) a b =
  let diff = abs_float (a -. b) in
  diff <= eps || diff <= eps *. Float.max (abs_float a) (abs_float b)

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

(* Kahan summation as [for] loops over local float refs, which the
   compiler keeps unboxed: an [Array.iter] closure would box its float
   argument and both accumulators on every element. *)
let sum a =
  let total = ref 0. and comp = ref 0. in
  for i = 0 to Array.length a - 1 do
    let y = Array.unsafe_get a i -. !comp in
    let t = !total +. y in
    comp := t -. !total -. y;
    total := t
  done;
  !total

let sum_by f a =
  let total = ref 0. and comp = ref 0. in
  for i = 0 to Array.length a - 1 do
    let y = f (Array.unsafe_get a i) -. !comp in
    let t = !total +. y in
    comp := t -. !total -. y;
    total := t
  done;
  !total

let mean a = if Array.length a = 0 then 0. else sum a /. float_of_int (Array.length a)
let log2 x = log x /. log 2.

let iterated_log2 n =
  let rec go acc n = if n <= 1. then acc else go (acc + 1) (log2 n) in
  go 0 n
