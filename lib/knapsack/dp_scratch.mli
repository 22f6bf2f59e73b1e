(** Reusable flat workspace for the {!Fptas} kernel, plus the per-row
    bit accessors of the plain solvers ({!Exact_dp}, {!Reference.fptas_naive}).

    A scratch only ever grows; each acquisition re-initializes exactly the
    prefix the caller asked for, so a solver run computing in a recycled
    scratch is bitwise identical to one allocating fresh arrays — the
    differential property tests pin the two paths equal.  Not thread-safe:
    one scratch per domain (the parallel engine's per-trial closures each
    build their own).

    The FPTAS runs on an unboxed 1-D {!Bigarray.Array1} table
    ({!float_table}) and a single bitset-packed {!plane} in place of a
    per-row [Bytes] matrix; 2-D indexing is manual [(row * width) + col].
    The [Bytes] row accessors {!set_bit}/{!get_bit} are the storage of the
    plain solvers, and the property tests pin the plane to them. *)

type t

(** Unboxed float 1-D workspace (C layout). *)
type float_table =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Bitset plane: unboxed int words (C layout), 32 bits used per word. *)
type plane = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : unit -> t

(** [ints t len ~fill] returns an int array of length >= [len] whose first
    [len] cells are [fill].  The same underlying array is returned on every
    call, growing as needed. *)
val ints : t -> int -> fill:int -> int array

(** [float_table t len ~fill] returns the scratch's unboxed float
    workspace, grown to >= [len] with the first [len] cells set to [fill]. *)
val float_table : t -> int -> fill:float -> float_table

(** [plane_words ~cols] is the width in words of a plane row covering
    columns [0 .. cols-1] (32 bits per word). *)
val plane_words : cols:int -> int

(** [plane t ~rows ~cols] returns the scratch's bitset plane, grown to
    cover [rows * plane_words ~cols] words and zeroed on that prefix.  Bit
    [(r, c)] lives at word [(r * plane_words ~cols) + (c lsr 5)], bit
    [c land 31]. *)
val plane : t -> rows:int -> cols:int -> plane

(** [plane_set p ~width r c] sets bit [(r, c)] of a plane acquired with
    row width [width] (= [plane_words ~cols]).  Unchecked. *)
val plane_set : plane -> width:int -> int -> int -> unit

(** [plane_bit p ~width r c] reads bit [(r, c)] as [0]/[1] — branch-free,
    for reconstruction walks.  Unchecked. *)
val plane_bit : plane -> width:int -> int -> int -> int

(** Bit accessors over a byte row, little-endian within each byte. *)
val set_bit : Bytes.t -> int -> unit

val get_bit : Bytes.t -> int -> bool
