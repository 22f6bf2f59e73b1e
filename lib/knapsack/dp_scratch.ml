module A1 = Bigarray.Array1

type float_table = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t
type plane = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

type t = {
  mutable ints : int array;
  mutable ftable : float_table;
  mutable plane : plane;
}

let empty_float_table : float_table = A1.create Bigarray.float64 Bigarray.c_layout 0
let empty_plane : plane = A1.create Bigarray.int Bigarray.c_layout 0
let create () = { ints = [||]; ftable = empty_float_table; plane = empty_plane }

let ints t len ~fill =
  if Array.length t.ints < len then t.ints <- Array.make len fill
  else Array.fill t.ints 0 len fill;
  t.ints

(* Bigarray workspaces only ever grow, like the boxed one above; the
   zeroed prefix is re-initialized through a sub view so the C memset path
   does the work. *)

let float_table t len ~fill =
  if A1.dim t.ftable < len then
    t.ftable <- A1.create Bigarray.float64 Bigarray.c_layout len;
  A1.fill (A1.sub t.ftable 0 len) fill;
  t.ftable

(* The take-bit plane: one flat word array holding every row of the
   reconstruction bit-matrix, 32 bits per word so the column split
   [c lsr 5 / c land 31] is two shift-class instructions (a 63-bit OCaml
   int could hold more, but 63 is not a power of two and the division
   would cost more than the wasted bits). *)

let plane_word_shift = 5
let plane_word_mask = 31
let plane_words ~cols = (cols lsr plane_word_shift) + 1

let plane t ~rows ~cols =
  let len = rows * plane_words ~cols in
  if A1.dim t.plane < len then
    t.plane <- A1.create Bigarray.int Bigarray.c_layout len;
  A1.fill (A1.sub t.plane 0 len) 0;
  t.plane

let[@hot] plane_set (p : plane) ~width r c =
  let idx = (r * width) + (c lsr plane_word_shift) in
  A1.unsafe_set p idx (A1.unsafe_get p idx lor (1 lsl (c land plane_word_mask)))

let[@hot] plane_bit (p : plane) ~width r c =
  let idx = (r * width) + (c lsr plane_word_shift) in
  (A1.unsafe_get p idx lsr (c land plane_word_mask)) land 1

let set_bit row c =
  let byte = c / 8 and bit = c mod 8 in
  Bytes.set row byte (Char.chr (Char.code (Bytes.get row byte) lor (1 lsl bit)))

let get_bit row c =
  let byte = c / 8 and bit = c mod 8 in
  Char.code (Bytes.get row byte) land (1 lsl bit) <> 0
