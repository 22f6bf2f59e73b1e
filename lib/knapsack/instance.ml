type t = { items : Item.t array; capacity : float }

let make items ~capacity =
  if Array.length items = 0 then invalid_arg "Instance.make: no items";
  if not (Float.is_finite capacity) || capacity < 0. then
    invalid_arg "Instance.make: capacity must be finite and non-negative";
  { items; capacity }

let of_pairs pairs ~capacity =
  let items =
    Array.of_list (List.map (fun (profit, weight) -> Item.make ~profit ~weight) pairs)
  in
  make items ~capacity

let size t = Array.length t.items
let item t i = t.items.(i)
let capacity t = t.capacity
(* [Float_utils.sum_by] over one field, written out: a closure's float
   result is boxed, so the totals read the field directly (same Kahan
   steps in the same order). *)
let field_total t ~weight =
  let total = ref 0. and comp = ref 0. in
  for i = 0 to Array.length t.items - 1 do
    let it = Array.unsafe_get t.items i in
    let y = (if weight then it.Item.weight else it.Item.profit) -. !comp in
    let s = !total +. y in
    comp := s -. !total -. y;
    total := s
  done;
  !total

let total_profit t = field_total t ~weight:false
let total_weight t = field_total t ~weight:true

let map_items f t = { t with items = Array.map f t.items }

let normalize_profits t =
  let total = total_profit t in
  if total <= 0. then invalid_arg "Instance.normalize_profits: zero total profit";
  map_items (fun (it : Item.t) -> { it with profit = it.profit /. total }) t

let normalize t =
  let tp = total_profit t and tw = total_weight t in
  if tp <= 0. then invalid_arg "Instance.normalize: zero total profit";
  if tw <= 0. then invalid_arg "Instance.normalize: zero total weight";
  let items =
    Array.map
      (fun (it : Item.t) -> { Item.profit = it.profit /. tp; weight = it.weight /. tw })
      t.items
  in
  { items; capacity = t.capacity /. tw }

let is_normalized ?(eps = 1e-9) t = Lk_util.Float_utils.approx_eq ~eps (total_profit t) 1.

let digest t =
  (* The MD5 of "n=<n>|K=<capacity>" followed by "|<profit>,<weight>" per
     item, every float rendered as %h (hex-exact, as in Params.digest): two
     instances share a digest iff capacity and every (profit, weight) are
     bit-identical, and the fixed length lets the serving pool key on it
     regardless of n.  The floats go through the allocation-free %h writer
     into one buffer sized for the longest rendering. *)
  let write_hex = Lk_util.Float_utils.write_hex in
  let header = Printf.sprintf "n=%d|K=%h" (size t) t.capacity in
  let per_item = 2 + (2 * Lk_util.Float_utils.hex_max_length) in
  let buf = Bytes.create (String.length header + (per_item * size t)) in
  Bytes.blit_string header 0 buf 0 (String.length header);
  let pos = ref (String.length header) in
  for i = 0 to size t - 1 do
    let it = t.items.(i) in
    Bytes.unsafe_set buf !pos '|';
    let p = write_hex buf (!pos + 1) it.Item.profit in
    Bytes.unsafe_set buf p ',';
    pos := write_hex buf (p + 1) it.Item.weight
  done;
  Digest.to_hex (Digest.subbytes buf 0 !pos)

let profits t = Array.map (fun (it : Item.t) -> it.profit) t.items
let weights t = Array.map (fun (it : Item.t) -> it.weight) t.items
