let id = "counting-discipline"

(* The counting pillar's accounting argument hinges on one confinement:
   [Lk_counting.Robp] is the only materialization of an instance the
   counters ever see, and it is built through [Query_oracle] — read-once,
   one counted query per item.  Code outside lib/counting that named the
   frozen program (or the raw DP internals over it) could count without
   being billed: weights read off a [Robp.t] charge nothing, so a second
   consumer would break the "every probe is visible in oracle counters
   and obs profiles" invariant E13/E14 rest on.  Everyone else goes
   through the counting facades ([Exact.count], [Gkm.count], [Svv.count],
   [Sampler.of_oracle]), which take the oracle itself and leave an
   auditable query trail — the same shape as the observability rule (Sink
   via Obs.emit). *)

let banned =
  [ ( "Lk_counting.Robp",
      "lib/counting/",
      "names the frozen branching program outside lib/counting; go \
       through the counting facades (Exact/Gkm/Svv/Sampler), which build \
       it through Query_oracle so every probe is billed" );
    ( "Lk_counting.State_dp",
      "lib/counting/",
      "drives the raw counting DP outside lib/counting; go through \
       Lk_counting.Exact, which owns the exact-engine dispatch" );
    ( "Lk_counting.Count_scratch",
      "lib/counting/",
      "reaches into the counting kernels' flat workspaces outside \
       lib/counting; the facades own their scratch lifetimes" ) ]

let matches m name =
  name = m
  || (String.length name > String.length m
      && String.sub name 0 (String.length m) = m
      && name.[String.length m] = '.')

let in_dir dir file =
  String.length file >= String.length dir
  && String.sub file 0 (String.length dir) = dir

let check ~file tokens =
  Array.to_list tokens
  |> List.concat_map (fun (t : Tokenizer.token) ->
         if t.Tokenizer.kind <> Tokenizer.Ident then []
         else
           List.filter_map
             (fun (m, dir, why) ->
               if matches m t.Tokenizer.text && not (in_dir dir file) then
                 Some
                   (Finding.make ~rule:id ~file ~line:t.Tokenizer.line
                      ~col:t.Tokenizer.col
                      (Printf.sprintf "'%s' %s" t.Tokenizer.text why))
               else None)
             banned)
