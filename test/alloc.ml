(* Words allocated by one call, counted exactly: [Gc.minor_words] for the
   minor heap (the minor count of [Gc.counters] only adds an eighth of the
   words allocated since the last minor collection on OCaml 5.1, so it
   misreads anything smaller than the minor heap), plus the words
   allocated directly in the major heap. *)
let allocated f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
