(** Reusable preparation workspace, owned by an {!Lca_kp.t} and surviving
    across [prepare] calls (all [with_access] views share one arena).

    Three lanes:
    - a {e tie-salt memo}: [Lk_repro.Domain.salt] is a pure function of
      (seed, index) but costs a derivation-path hash per call; the memo
      caches it per item index ([-1] = unfilled).  Shared by Ĩ-construction
      and the answer path.  Concurrent answer batches may race on a slot,
      but every writer stores the same value, so the race is benign and
      outputs stay deterministic;
    - a {e code buffer} for the efficiency codes of the EPS sample;
    - a {e sort scratch} where {!Lk_repro.Rmedian.prepare} keeps the EPS
      sample's sorted bootstrap chunks while [Eps.compute] runs.

    Contents of the latter two are clobbered by every build, so an arena
    belongs to one domain at a time: two builds running at once on one
    arena would sort the same chunks under each other.  None of the lanes
    ever shrinks.  Results are bit-identical with or without a recycled
    arena. *)

type t

val create : unit -> t

(** [salts t n] — the salt memo, grown to length >= [n]; existing entries
    are preserved, new slots are [-1]. *)
val salts : t -> int -> int array

(** [codes t n] — the code buffer, grown to length >= [n]; contents
    unspecified. *)
val codes : t -> int -> int array

(** [sort_scratch t n] — the bootstrap sort buffer, grown to length >=
    [n]; contents unspecified. *)
val sort_scratch : t -> int -> int array
