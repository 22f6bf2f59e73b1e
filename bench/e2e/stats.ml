(* Order statistics shared by main.exe and compare.exe.

   Percentiles are nearest-rank over per-mille levels, so ranks come from
   integer arithmetic: the p99.9 rank of n samples is ceil(999 n / 1000),
   with no floating-point rounding at the boundary. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* 1-based nearest rank: the smallest r with r / n >= permille / 1000. *)
let rank ~n ~permille =
  if n < 1 then invalid_arg "Stats.rank: no samples";
  if permille < 1 || permille > 1000 then invalid_arg "Stats.rank: permille out of range";
  ((permille * n) + 999) / 1000

(* [percentile sorted ~permille] — [sorted] ascending. *)
let percentile sorted ~permille =
  sorted.(rank ~n:(Array.length sorted) ~permille - 1)

let median_sorted sorted = percentile sorted ~permille:500

(* The tail levels a report may quote, highest first. *)
let tail_ladder = [ 999; 990; 950; 900; 750; 500 ]

(* The highest ladder level with at least 10 samples strictly above its
   rank, if any: a percentile is only quoted when enough samples lie
   beyond it to make it more than one unlucky request. *)
let supported_tail n = List.find_opt (fun permille -> n - rank ~n ~permille >= 10) tail_ladder

(* Python's [statistics.median]: the mean of the two middle values for an
   even count. *)
let median xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then d.(n / 2) else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.

(* Python's [statistics.quantiles xs ~n:4] (the default "exclusive"
   method), returned as (q1, q2, q3). *)
let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

(* Inter-quartile distance as a share of the median — the run-to-run
   spread a bound has to cover. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. median xs

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* The samples of the quietest twentieth of a run: [a] (in request order)
   is cut into 100 consecutive slices of equal count, and the 5 slices with
   the lowest [by] (their median for a latency, their mean for a
   throughput) are pooled.  Other processes on a shared machine slow a run
   in episodes of a second to minutes; pooling the quietest slices keeps
   those episodes out of a statistic, while a slowdown of the program
   itself, which every slice sees, stays in.  Keeping 5 slices rather than
   10 leaves less of an episode in a run that spent most of its time in
   one (README.md, "Quietest slices"). *)
let slices = 100
let kept_slices = 5

let quietest ~by a =
  let n = Array.length a in
  if n < slices then a
  else
    Array.init slices (fun w ->
        let s = Array.sub a (w * n / slices) (((w + 1) * n / slices) - (w * n / slices)) in
        (by s, s))
    |> Array.to_list
    |> List.stable_sort (fun (m1, _) (m2, _) -> Float.compare m1 m2)
    |> List.filteri (fun i _ -> i < kept_slices)
    |> List.map snd |> Array.concat

(* The fastest third (rounded up) of repeated timings of the same work, in
   ascending order: the set-ups' counterpart of [quietest], for the same
   reason. *)
let fastest_third xs =
  let d = sorted xs in
  Array.sub d 0 ((Array.length d + 2) / 3)

(* Growable float buffer: the closed loop appends one latency per request
   without knowing the request count in advance. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
  let sum t =
    let s = ref 0. in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s
end
