(** Per-file module summary: the raw material of the whole-program
    analysis.

    [of_tokens] segments a tokenized compilation unit into its top-level
    structure items (a structure item starts at a column-1 keyword:
    [let]/[and], [module], [open], [include], [external], [type], ...)
    and extracts, per file:
    - the top-level [open]ed module paths and [module M = Path] aliases,
      which the call-graph resolver needs to chase qualified names across
      modules (local opens and [let module] aliases are not followed);
    - the identifier occurrences of the items that bind no value
      ([open], [include], [type], [exception], a module alias's path, any
      tokens before the first item), which the confinement sites need;
    - one {!binding} per top-level [let]/[and]/[external] and per
      [module M = struct ... end] block (the block's contents are
      attributed to a single binding named [M] — a deliberate
      over-approximation that keeps the extractor a lexer, not a parser).

    Everything downstream (call graph, effect inference) is an
    over-approximation built on these summaries: a reference that cannot
    be attributed precisely is attributed coarsely, never dropped. *)

type occ = { text : string; line : int; col : int }
(** One identifier occurrence inside a binding body. *)

type binding = {
  name : string;
      (** binding name; [_anon_L<line>] for [let () = ...] / operators *)
  line : int;
  col : int;
  hot : bool;  (** carries a [[\@hot]] / [[\@\@hot]] attribute *)
  mutates : bool;  (** body contains [:=] or [<-] *)
  refs : occ list;
      (** identifier occurrences in the body, source order, keywords
          dropped; dotted module paths are single occurrences *)
}

type summary = {
  opens : string list;  (** top-level [open]/[include] paths, source order *)
  aliases : (string * string) list;  (** top-level [module M = Path] aliases *)
  bindings : binding list;  (** source order *)
  decls : occ list;
      (** occurrences in the other top-level items, source order; the
          name an item defines ([module M], [exception E]) is left out *)
}

val of_tokens : Tokenizer.token array -> summary
