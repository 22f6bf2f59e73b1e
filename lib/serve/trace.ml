module Rng = Lk_util.Rng

type entry = { instance : int; item : int }

type t = entry array

let check_theta name theta =
  if not (Float.is_finite theta) || theta < 0. then
    invalid_arg (Printf.sprintf "Trace.generate: %s must be finite and >= 0" name)

(* Cumulative Zipf weights: cum.(i) = sum_{r=1..i+1} 1/r^theta.  theta = 0
   degenerates to uniform; larger theta skews mass onto low ranks. *)
let zipf_cum n theta =
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for r = 1 to n do
    acc := !acc +. (1. /. Float.pow (float_of_int r) theta);
    cum.(r - 1) <- !acc
  done;
  cum

(* Inverse-CDF draw: smallest rank i with u < cum.(i), u ~ U[0, total).
   Every operation is deterministic float arithmetic on the Rng stream, so
   a (seed, theta, n) triple always yields the same rank sequence. *)
let zipf_draw cum rng =
  let n = Array.length cum in
  let u = Rng.float rng *. cum.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < cum.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let generate ?(theta_instances = 1.1) ?(theta_items = 1.0) ~seed ~sizes ~length () =
  check_theta "theta_instances" theta_instances;
  check_theta "theta_items" theta_items;
  let n_instances = Array.length sizes in
  if n_instances = 0 then invalid_arg "Trace.generate: no instances";
  Array.iter
    (fun s -> if s < 1 then invalid_arg "Trace.generate: instance sizes must be >= 1")
    sizes;
  if length < 0 then invalid_arg "Trace.generate: negative length";
  let rng = Rng.of_path seed [ "serve-trace" ] in
  let inst_cum = zipf_cum n_instances theta_instances in
  let item_cum = Array.map (fun s -> zipf_cum s theta_items) sizes in
  Array.init length (fun _ ->
      let instance = zipf_draw inst_cum rng in
      let item = zipf_draw item_cum.(instance) rng in
      { instance; item })

let entries t = t
let length t = Array.length t

let instance_counts ~n_instances t =
  let counts = Array.make n_instances 0 in
  Array.iter (fun e -> counts.(e.instance) <- counts.(e.instance) + 1) t;
  counts
