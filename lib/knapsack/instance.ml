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

(* [%caml_bytes_set64u] stores an int64 in the host's byte order without
   boxing it; a big-endian host swaps first, so the bytes are little-endian
   everywhere. *)
external set_int64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap_int64 : int64 -> int64 = "%bswap_int64"

let[@inline] set_int64_le buf pos x =
  set_int64 buf pos (if Sys.big_endian then bswap_int64 x else x)

let[@hot] digest t =
  (* The MD5 of 16 + 16n bytes, each field an 8-byte little-endian int64:
     n, the IEEE bits of the capacity, then the bits of each item's profit
     and weight.  Two instances share a digest iff n, the capacity and every
     float are bit-identical, and the fixed length lets the server key its
     prepared states on it regardless of n. *)
  let n = Array.length t.items in
  let buf = Bytes.create (16 + (16 * n)) in
  set_int64_le buf 0 (Int64.of_int n);
  set_int64_le buf 8 (Int64.bits_of_float t.capacity);
  for i = 0 to n - 1 do
    let it = Array.unsafe_get t.items i in
    set_int64_le buf (16 + (16 * i)) (Int64.bits_of_float it.Item.profit);
    set_int64_le buf (24 + (16 * i)) (Int64.bits_of_float it.Item.weight)
  done;
  Digest.to_hex (Digest.bytes buf)

let profits t = Array.map (fun (it : Item.t) -> it.profit) t.items
let weights t = Array.map (fun (it : Item.t) -> it.weight) t.items
