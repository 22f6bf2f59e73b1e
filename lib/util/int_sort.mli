(** In-place ascending sort for int arrays with monomorphic comparisons.

    Produces the same array as [Array.sort compare] (equal ints are
    indistinguishable, so every correct sort yields bit-identical output)
    without the polymorphic-compare dispatch that dominated the EPS
    construction's profile.  Ranges of 256 and more go through an LSD radix
    sort, which allocates one work array of the same length. *)

val sort : int array -> unit

(** [sort_tagged a tags] sorts [a] ascending in place and applies the same
    permutation to [tags]: the (value, tag) pairs are kept, and equal
    values keep their original order.  [tags] must be as long as [a]
    (else [Invalid_argument]).  {!Lk_repro.Rmedian} tags
    each draw with its bootstrap chunk, sorts the sample once, and deals
    the sorted draws out to their chunks. *)
val sort_tagged : int array -> Bytes.t -> unit
