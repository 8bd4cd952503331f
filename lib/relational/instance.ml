module Smap = Map.Make (String)
module Iset = Set.Make (Int)
module Vset = Set.Make (Value)

(* Index tables keyed by codes (or row hashes): dense non-negative ints
   that need no further hashing, compared without the polymorphic
   primitives of the generic [Hashtbl]. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (k : int) = k land max_int
end)

(* ------------------------------------------------------------------ *)
(* Columnar representation.

   A relation is an immutable {e segment} — tuples interned through
   {!Symtab} and stored as per-attribute int columns, sorted by
   [Tuple.compare] and deduplicated, with lazily built hash indexes — plus
   a persistent overlay: a set of deleted segment row ids and a functional
   set of extra tuples.  Bulk loads ([of_atoms]) build segments directly;
   the functional [add]/[remove] of the repair search only touch the
   overlay (and compact it into a fresh segment once it outgrows the
   segment), so the interface stays persistent while membership, attribute
   probes and per-relation scans on large instances run on int arrays.

   Invariants:
   - segment rows are sorted by [Tuple.compare] and pairwise distinct;
   - [extra] never contains a segment row (re-adding a deleted row shrinks
     [del] instead), so merged iteration needs no equality case;
   - [ndel]/[nextra] mirror the overlay cardinals;
   - the per-predicate map never holds an empty relation. *)

type seg = {
  arity : int;
  nrows : int;
  cols : int array array; (* [arity] columns of [nrows] codes *)
  seg_nulls : int; (* null occurrences across all rows *)
  row_index : int list Itbl.t option Atomic.t;
      (* row hash -> ascending row ids *)
  attr_index : int list Itbl.t option Atomic.t array;
      (* per column: code -> ascending row ids *)
  seg_codes : Iset.t option Atomic.t; (* distinct codes in the segment *)
  lock : Mutex.t; (* serializes lazy index construction across domains *)
}

(* The overlay tuples of a relation with their codes, ascending: interned
   once per overlay set, on the first join that reads the relation. *)
type overlay = { xtuples : Tuple.t array; xcodes : int array array }

type rel = {
  seg : seg;
  del : Iset.t;
  ndel : int;
  extra : Tuple.Set.t;
  nextra : int;
  xenc : overlay option Atomic.t;
      (* [extra] encoded; shared by every relation built on the same
         [extra], fresh whenever [extra] changes *)
}

type t = {
  rels : rel Smap.t;
  adom_memo : Value.t list option Atomic.t;
  nulls_memo : int option Atomic.t;
      (* Memo cells follow the segment indexes' double-checked discipline
         (fast atomic read, synchronized publish) but publish with a CAS
         instead of taking a lock: both computations are pure and
         deterministic, so two domains racing at worst duplicate work and
         agree on the value, and [mk] runs on every functional update —
         too hot to allocate a mutex per instance. *)
}

let empty_seg =
  {
    arity = 0;
    nrows = 0;
    cols = [||];
    seg_nulls = 0;
    row_index = Atomic.make None;
    attr_index = [||];
    seg_codes = Atomic.make None;
    lock = Mutex.create ();
  }

let mk rels =
  { rels; adom_memo = Atomic.make None; nulls_memo = Atomic.make None }
let empty = mk Smap.empty
let is_empty d = Smap.is_empty d.rels

(* Below this many rows a relation stays a plain tuple set: the repair
   search churns through thousands of tiny instances where interning and
   column allocation would only cost. *)
let seg_min = 8

(* Decode a row: the tuple is all it allocates, no [Array.init] closure. *)
let seg_row seg i =
  if seg.arity = 0 then [||]
  else begin
    let t = Array.make seg.arity (Symtab.value seg.cols.(0).(i)) in
    for j = 1 to seg.arity - 1 do
      t.(j) <- Symtab.value seg.cols.(j).(i)
    done;
    t
  end

(* [Tuple.compare t row_i], decoding the row one column at a time. *)
let rec compare_row_from (t : Tuple.t) seg i j =
  if j >= seg.arity then 0
  else
    let c = Value.compare t.(j) (Symtab.value seg.cols.(j).(i)) in
    if c <> 0 then c else compare_row_from t seg i (j + 1)

let compare_tuple_row (t : Tuple.t) seg i =
  let n = Array.length t in
  if n <> seg.arity then Int.compare n seg.arity else compare_row_from t seg i 0

(* [Tuple.compare row_i row_k] across two segments. *)
let rec compare_rows_from sa i sb k j =
  if j >= sa.arity then 0
  else
    let c =
      Value.compare (Symtab.value sa.cols.(j).(i)) (Symtab.value sb.cols.(j).(k))
    in
    if c <> 0 then c else compare_rows_from sa i sb k (j + 1)

let compare_rows sa i sb k =
  if sa.arity <> sb.arity then Int.compare sa.arity sb.arity
  else compare_rows_from sa i sb k 0

let row_hash seg i =
  let h = ref 17 in
  for j = 0 to seg.arity - 1 do
    h := (!h * 31) + seg.cols.(j).(i)
  done;
  !h land max_int

let codes_hash codes =
  let h = ref 17 in
  Array.iter (fun c -> h := (!h * 31) + c) codes;
  !h land max_int

let force_index cell seg build =
  match Atomic.get cell with
  | Some tbl -> tbl
  | None ->
      Mutex.lock seg.lock;
      let tbl =
        match Atomic.get cell with
        | Some tbl -> tbl
        | None ->
            let tbl = build () in
            Atomic.set cell (Some tbl);
            tbl
      in
      Mutex.unlock seg.lock;
      tbl

let force_row_index seg =
  force_index seg.row_index seg (fun () ->
      let tbl = Itbl.create ((2 * seg.nrows) + 1) in
      for i = seg.nrows - 1 downto 0 do
        let h = row_hash seg i in
        Itbl.replace tbl h
          (i :: Option.value ~default:[] (Itbl.find_opt tbl h))
      done;
      tbl)

let build_attr_index seg pos =
  force_index seg.attr_index.(pos) seg (fun () ->
      let tbl = Itbl.create ((2 * seg.nrows) + 1) in
      let col = seg.cols.(pos) in
      for i = seg.nrows - 1 downto 0 do
        let c = col.(i) in
        Itbl.replace tbl c
          (i :: Option.value ~default:[] (Itbl.find_opt tbl c))
      done;
      tbl)

(* A built index is read without allocating the closure that would build
   it: joins probe once per match. *)
let force_attr_index seg pos =
  match Atomic.get seg.attr_index.(pos) with
  | Some tbl -> tbl
  | None -> build_attr_index seg pos

let seg_codes seg =
  force_index seg.seg_codes seg (fun () ->
      let s = ref Iset.empty in
      Array.iter (fun col -> Array.iter (fun c -> s := Iset.add c !s) col) seg.cols;
      !s)

let row_equals_codes seg i codes =
  let rec go j = j >= seg.arity || (seg.cols.(j).(i) = codes.(j) && go (j + 1)) in
  go 0

let seg_find_codes seg codes =
  let tbl = force_row_index seg in
  let rec search = function
    | [] -> None
    | i :: rest -> if row_equals_codes seg i codes then Some i else search rest
  in
  search (Option.value ~default:[] (Itbl.find_opt tbl (codes_hash codes)))

(* Row id of the tuple in the segment, interning nothing: a tuple holding
   a never-seen constant cannot be a segment row. *)
let seg_find seg (t : Tuple.t) =
  if seg.nrows = 0 || Array.length t <> seg.arity then None
  else
    let codes = Array.make seg.arity 0 in
    let rec encode j =
      j >= seg.arity
      ||
      match Symtab.find t.(j) with
      | Some c ->
          codes.(j) <- c;
          encode (j + 1)
      | None -> false
    in
    if encode 0 then seg_find_codes seg codes else None

let build_seg ~arity (rows : Tuple.t array) =
  let nrows = Array.length rows in
  let cols = Array.init arity (fun _ -> Array.make nrows 0) in
  let nulls = ref 0 in
  for i = 0 to nrows - 1 do
    let t = rows.(i) in
    for j = 0 to arity - 1 do
      let c = Symtab.intern t.(j) in
      if c = Symtab.null_id then incr nulls;
      cols.(j).(i) <- c
    done
  done;
  {
    arity;
    nrows;
    cols;
    seg_nulls = !nulls;
    row_index = Atomic.make None;
    attr_index = Array.init arity (fun _ -> Atomic.make None);
    seg_codes = Atomic.make None;
    lock = Mutex.create ();
  }

let mk_rel seg del ndel extra nextra =
  { seg; del; ndel; extra; nextra; xenc = Atomic.make None }

(* Same overlay, new deletions: the encoded overlay carries over. *)
let with_del r del ndel = { r with del; ndel }

let overlay_rel ts = mk_rel empty_seg Iset.empty 0 ts (Tuple.Set.cardinal ts)

(* Build a relation from sorted, deduplicated tuples.  Mixed arities (legal
   under set semantics, if exotic) keep the most common arity columnar and
   overflow the rest into the overlay; [Tuple.compare] orders by arity
   first, so both groups stay sorted. *)
let rel_of_sorted_array (rows : Tuple.t array) =
  let n = Array.length rows in
  if n = 0 then None
  else if n < seg_min then Some (overlay_rel (Tuple.Set.of_list (Array.to_list rows)))
  else begin
    let counts = Hashtbl.create 4 in
    Array.iter
      (fun t ->
        let a = Array.length t in
        Hashtbl.replace counts a (1 + Option.value ~default:0 (Hashtbl.find_opt counts a)))
      rows;
    let arity, _ =
      Hashtbl.fold
        (fun a c ((ba, bc) as best) ->
          if c > bc || (c = bc && a < ba) then (a, c) else best)
        counts (-1, 0)
    in
    let seg_rows, rest =
      if Hashtbl.length counts = 1 then (rows, [])
      else
        ( Array.of_list
            (List.filter (fun t -> Array.length t = arity) (Array.to_list rows)),
          List.filter (fun t -> Array.length t <> arity) (Array.to_list rows) )
    in
    Some
      (mk_rel (build_seg ~arity seg_rows) Iset.empty 0 (Tuple.Set.of_list rest)
         (List.length rest))
  end

let sort_dedup (arr : Tuple.t array) =
  Array.sort Tuple.compare arr;
  let n = Array.length arr in
  if n = 0 then arr
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if Tuple.compare arr.(i) arr.(!k - 1) <> 0 then begin
        arr.(!k) <- arr.(i);
        incr k
      end
    done;
    if !k = n then arr else Array.sub arr 0 !k
  end

let rel_cardinal_of r = r.seg.nrows - r.ndel + r.nextra
let rel_is_empty r = rel_cardinal_of r = 0

let rel_mem r t =
  Tuple.Set.mem t r.extra
  ||
  match seg_find r.seg t with
  | Some i -> not (Iset.mem i r.del)
  | None -> false

(* Live tuples of a relation in [Tuple.compare] order: one merge of the
   surviving segment rows (sorted by construction) into the overlay set's
   own traversal.  A row is compared with the overlay in place and
   decoded only when it is passed on, so the walk allocates the decoded
   tuples and nothing per row beyond them. *)
let rel_iter f r =
  let seg = r.seg in
  let i = ref 0 in
  Tuple.Set.iter
    (fun x ->
      while !i < seg.nrows && compare_tuple_row x seg !i > 0 do
        if not (Iset.mem !i r.del) then f (seg_row seg !i);
        incr i
      done;
      f x)
    r.extra;
  for i = !i to seg.nrows - 1 do
    if not (Iset.mem i r.del) then f (seg_row seg i)
  done

let rel_fold f r acc =
  let acc = ref acc in
  rel_iter (fun t -> acc := f t !acc) r;
  !acc

let rel_live_array r =
  let n = rel_cardinal_of r in
  if n = 0 then [||]
  else begin
    let arr = Array.make n [||] in
    let i = ref 0 in
    rel_iter
      (fun t ->
        arr.(!i) <- t;
        incr i)
      r;
    arr
  end

(* Compact an overgrown overlay into a fresh segment.  The merged stream is
   already sorted and distinct, so no re-sort. *)
let compact_rel r = Option.get (rel_of_sorted_array (rel_live_array r))

let compact_threshold seg = if seg.nrows = 0 then 4096 else max 1024 (seg.nrows / 4)

let rel_add r t =
  if Tuple.Set.mem t r.extra then r
  else
    match seg_find r.seg t with
    | Some i when Iset.mem i r.del -> with_del r (Iset.remove i r.del) (r.ndel - 1)
    | Some _ -> r
    | None ->
        let r = mk_rel r.seg r.del r.ndel (Tuple.Set.add t r.extra) (r.nextra + 1) in
        if r.nextra > compact_threshold r.seg then compact_rel r else r

let rel_remove r t =
  if Tuple.Set.mem t r.extra then
    mk_rel r.seg r.del r.ndel (Tuple.Set.remove t r.extra) (r.nextra - 1)
  else
    match seg_find r.seg t with
    | Some i when not (Iset.mem i r.del) -> with_del r (Iset.add i r.del) (r.ndel + 1)
    | _ -> r

let add a d =
  let p = Atom.pred a and t = Atom.args a in
  match Smap.find_opt p d.rels with
  | None -> mk (Smap.add p (overlay_rel (Tuple.Set.singleton t)) d.rels)
  | Some r ->
      let r' = rel_add r t in
      if r' == r then d else mk (Smap.add p r' d.rels)

let remove a d =
  let p = Atom.pred a and t = Atom.args a in
  match Smap.find_opt p d.rels with
  | None -> d
  | Some r ->
      let r' = rel_remove r t in
      if r' == r then d
      else if rel_is_empty r' then mk (Smap.remove p d.rels)
      else mk (Smap.add p r' d.rels)

let mem a d =
  match Smap.find_opt (Atom.pred a) d.rels with
  | None -> false
  | Some r -> rel_mem r (Atom.args a)

let of_atoms atoms =
  let tbl : (string, Tuple.t list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let p = Atom.pred a in
      match Hashtbl.find_opt tbl p with
      | Some l -> l := Atom.args a :: !l
      | None -> Hashtbl.add tbl p (ref [ Atom.args a ]))
    atoms;
  let rels =
    Hashtbl.fold
      (fun p l acc ->
        match rel_of_sorted_array (sort_dedup (Array.of_list !l)) with
        | Some r -> Smap.add p r acc
        | None -> acc)
      tbl Smap.empty
  in
  mk rels

let of_list l = of_atoms (List.map (fun (p, vs) -> Atom.make p vs) l)

let fold f d acc =
  Smap.fold
    (fun p r acc -> rel_fold (fun t acc -> f (Atom.of_tuple p t) acc) r acc)
    d.rels acc

let iter f d = fold (fun a () -> f a) d ()
let atoms d = List.rev (fold (fun a acc -> a :: acc) d [])
let atom_set d = fold Atom.Set.add d Atom.Set.empty

let filter f d =
  let rels =
    Smap.filter_map
      (fun p r ->
        let kept =
          rel_fold (fun t acc -> if f (Atom.of_tuple p t) then t :: acc else acc) r []
        in
        (* [kept] is descending; reverse restores sorted order *)
        rel_of_sorted_array (Array.of_list (List.rev kept)))
      d.rels
  in
  mk rels

let cardinal d = Smap.fold (fun _ r n -> n + rel_cardinal_of r) d.rels 0
let preds d = Smap.fold (fun p _ acc -> p :: acc) d.rels [] |> List.rev

let tuples d p =
  match Smap.find_opt p d.rels with
  | None -> Tuple.Set.empty
  | Some r ->
      if r.seg.nrows = 0 then r.extra
      else rel_fold Tuple.Set.add r Tuple.Set.empty

(* ------------------------------------------------------------------ *)
(* Set operations.  Relations sharing a segment physically — the common
   case for session deltas, where [d'] is a few [add]/[remove]s away from
   [d] — combine in time proportional to their overlays: the live rows are
   [rows \ del ∪ extra] on both sides with the same [rows], and [extra] is
   disjoint from [rows], so the tuple-level set algebra reduces to row-id
   and overlay algebra. *)

let rel_decode_rows r ids =
  Iset.fold (fun i acc -> seg_row r.seg i :: acc) ids [] |> List.rev

let rel_generic_of_tuples sorted_list =
  rel_of_sorted_array (Array.of_list sorted_list)

let merge_sorted xs ys =
  (* both sorted distinct; result sorted distinct (inputs disjoint or not) *)
  let rec go xs ys acc =
    match (xs, ys) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs', y :: ys' ->
        let c = Tuple.compare x y in
        if c < 0 then go xs' ys (x :: acc)
        else if c > 0 then go xs ys' (y :: acc)
        else go xs' ys' (x :: acc)
  in
  go xs ys []

let rel_union ra rb =
  if ra == rb then Some ra
  else if ra.seg == rb.seg then
    let del = Iset.inter ra.del rb.del in
    let extra = Tuple.Set.union ra.extra rb.extra in
    Some (mk_rel ra.seg del (Iset.cardinal del) extra (Tuple.Set.cardinal extra))
  else if ra.seg.nrows = 0 && rb.seg.nrows = 0 then
    Some (overlay_rel (Tuple.Set.union ra.extra rb.extra))
  else
    let big, small =
      if rel_cardinal_of ra >= rel_cardinal_of rb then (ra, rb) else (rb, ra)
    in
    if rel_cardinal_of small * 4 <= rel_cardinal_of big then
      Some (rel_fold (fun t r -> rel_add r t) small big)
    else
      rel_generic_of_tuples
        (merge_sorted
           (Array.to_list (rel_live_array ra))
           (Array.to_list (rel_live_array rb)))

let rel_diff ra rb =
  if ra == rb then None
  else if ra.seg == rb.seg then
    let rows = rel_decode_rows ra (Iset.diff rb.del ra.del) in
    let extra = Tuple.Set.diff ra.extra rb.extra in
    let merged = merge_sorted rows (Tuple.Set.elements extra) in
    rel_generic_of_tuples merged
  else if ra.seg.nrows = 0 && rb.seg.nrows = 0 then
    let s = Tuple.Set.diff ra.extra rb.extra in
    if Tuple.Set.is_empty s then None else Some (overlay_rel s)
  else
    let kept = rel_fold (fun t acc -> if rel_mem rb t then acc else t :: acc) ra [] in
    rel_generic_of_tuples (List.rev kept)

let rel_inter ra rb =
  if ra == rb then Some ra
  else if ra.seg == rb.seg then
    let del = Iset.union ra.del rb.del in
    let extra = Tuple.Set.inter ra.extra rb.extra in
    let r = mk_rel ra.seg del (Iset.cardinal del) extra (Tuple.Set.cardinal extra) in
    if rel_is_empty r then None else Some r
  else if ra.seg.nrows = 0 && rb.seg.nrows = 0 then
    let s = Tuple.Set.inter ra.extra rb.extra in
    if Tuple.Set.is_empty s then None else Some (overlay_rel s)
  else
    let small, other =
      if rel_cardinal_of ra <= rel_cardinal_of rb then (ra, rb) else (rb, ra)
    in
    let kept =
      rel_fold (fun t acc -> if rel_mem other t then t :: acc else acc) small []
    in
    rel_generic_of_tuples (List.rev kept)

let merge_with op a b =
  let rels =
    Smap.merge
      (fun _ x y ->
        match (x, y) with
        | None, None -> None
        | Some _, None | None, Some _ | Some _, Some _ -> op x y)
      a.rels b.rels
  in
  mk rels

let union a b =
  if a == b then a
  else
    merge_with
      (fun x y ->
        match (x, y) with
        | Some ra, Some rb -> rel_union ra rb
        | (Some _ as r), None | None, (Some _ as r) -> r
        | None, None -> None)
      a b

let diff a b =
  if a == b then empty
  else
    merge_with
      (fun x y ->
        match (x, y) with
        | Some ra, Some rb -> rel_diff ra rb
        | (Some _ as r), None -> r
        | None, _ -> None)
      a b

let inter a b =
  if a == b then a
  else
    merge_with
      (fun x y ->
        match (x, y) with
        | Some ra, Some rb -> rel_inter ra rb
        | _ -> None)
      a b

let symdiff a b = union (diff a b) (diff b a)

exception Stop

let rel_subset ra rb =
  if ra == rb then true
  else if ra.seg == rb.seg then
    Iset.subset rb.del ra.del && Tuple.Set.subset ra.extra rb.extra
  else if ra.seg.nrows = 0 && rb.seg.nrows = 0 then
    Tuple.Set.subset ra.extra rb.extra
  else if rel_cardinal_of ra > rel_cardinal_of rb then false
  else
    match rel_iter (fun t -> if not (rel_mem rb t) then raise_notrace Stop) ra with
    | () -> true
    | exception Stop -> false

let subset a b =
  a == b
  || Smap.for_all
       (fun p ra ->
         match Smap.find_opt p b.rels with
         | None -> rel_is_empty ra
         | Some rb -> rel_subset ra rb)
       a.rels

(* Two relations' live tuples in step: a cursor is the next segment row
   that may be live and the overlay tuples not yet passed.
   [row_first r i xs] is whether the cursor's head is segment row [i]
   (after [live_row] skipped the deleted ones) rather than the head of
   [xs]; the overlay never holds a segment row, so the two never tie. *)
let rec live_row r i =
  if i < r.seg.nrows && Iset.mem i r.del then live_row r (i + 1) else i

let row_first r i xs =
  i < r.seg.nrows
  && match xs with [] -> true | x :: _ -> compare_tuple_row x r.seg i > 0

(* [Tuple.compare] over the two cursors' streams, an exhausted side
   ordering first; rows are compared in place, decoded by no one. *)
let rec merge_compare ra i xs rb k ys =
  let i = live_row ra i and k = live_row rb k in
  let a_row = row_first ra i xs and b_row = row_first rb k ys in
  let a_done = (not a_row) && List.is_empty xs
  and b_done = (not b_row) && List.is_empty ys in
  if a_done || b_done then Bool.compare b_done a_done
  else
    let c =
      match (a_row, b_row, xs, ys) with
      | true, true, _, _ -> compare_rows ra.seg i rb.seg k
      | true, false, _, y :: _ -> -compare_tuple_row y ra.seg i
      | false, true, x :: _, _ -> compare_tuple_row x rb.seg k
      | false, false, x :: _, y :: _ -> Tuple.compare x y
      | _ -> assert false
    in
    if c <> 0 then c
    else
      merge_compare ra
        (if a_row then i + 1 else i)
        (if a_row then xs else List.tl xs)
        rb
        (if b_row then k + 1 else k)
        (if b_row then ys else List.tl ys)

(* [compare] replicates the oracle's order — [Smap.compare Tuple.Set.compare]
   over the never-empty per-predicate map — exactly: lexicographic over the
   (predicate, tuple-sequence) stream, an exhausted side ordering first.
   Sorted repair lists, search-state dedup and the goldens all depend on
   this order being stable across representations. *)
let rel_compare ra rb =
  if ra == rb then 0
  else if ra.seg.nrows = 0 && rb.seg.nrows = 0 then
    Tuple.Set.compare ra.extra rb.extra
  else if
    ra.seg == rb.seg && Iset.equal ra.del rb.del && Tuple.Set.equal ra.extra rb.extra
  then 0
  else
    merge_compare ra 0 (Tuple.Set.elements ra.extra) rb 0
      (Tuple.Set.elements rb.extra)

let compare a b =
  if a == b then 0
  else
    let rec go sa sb =
      match (sa (), sb ()) with
      | Seq.Nil, Seq.Nil -> 0
      | Seq.Nil, Seq.Cons _ -> -1
      | Seq.Cons _, Seq.Nil -> 1
      | Seq.Cons ((pa, ra), sa'), Seq.Cons ((pb, rb), sb') ->
          let c = String.compare pa pb in
          if c <> 0 then c
          else
            let c = rel_compare ra rb in
            if c <> 0 then c else go sa' sb'
    in
    go (Smap.to_seq a.rels) (Smap.to_seq b.rels)

let equal a b = compare a b = 0

(* ------------------------------------------------------------------ *)
(* Memoized whole-instance statistics.  Both are pure functions of the
   (immutable) contents, so racing writers at worst recompute the same
   value. *)

let rel_codes_exact r =
  (* distinct codes of the live segment rows; with deletions the cached
     per-segment code set over-approximates, so rescan the survivors *)
  if r.ndel = 0 then seg_codes r.seg
  else begin
    let s = ref Iset.empty in
    for i = 0 to r.seg.nrows - 1 do
      if not (Iset.mem i r.del) then
        for j = 0 to r.seg.arity - 1 do
          s := Iset.add r.seg.cols.(j).(i) !s
        done
    done;
    !s
  end

let active_domain d =
  match Atomic.get d.adom_memo with
  | Some vs -> vs
  | None ->
      let vs =
        Smap.fold
          (fun _ r acc ->
            let acc =
              if r.seg.nrows = 0 then acc
              else
                Iset.fold
                  (fun c acc -> Vset.add (Symtab.value c) acc)
                  (rel_codes_exact r) acc
            in
            Tuple.Set.fold
              (fun t acc ->
                Array.fold_left (fun acc v -> Vset.add v acc) acc t)
              r.extra acc)
          d.rels Vset.empty
      in
      let vs = Vset.elements vs in
      if not (Atomic.compare_and_set d.adom_memo None (Some vs)) then
        (* a racing domain published first; return its (equal) list so
           physical equality of repeated calls still holds *)
        match Atomic.get d.adom_memo with Some vs -> vs | None -> vs
      else vs

let active_domain_non_null d =
  List.filter (fun v -> not (Value.is_null v)) (active_domain d)

let null_count d =
  match Atomic.get d.nulls_memo with
  | Some n -> n
  | None ->
      let n =
        Smap.fold
          (fun _ r acc ->
            let deleted_nulls =
              if r.ndel = 0 || r.seg.seg_nulls = 0 then 0
              else
                Iset.fold
                  (fun i acc ->
                    let k = ref acc in
                    for j = 0 to r.seg.arity - 1 do
                      if r.seg.cols.(j).(i) = Symtab.null_id then incr k
                    done;
                    !k)
                  r.del 0
            in
            let extra_nulls =
              Tuple.Set.fold
                (fun t acc ->
                  Array.fold_left
                    (fun acc v -> if Value.is_null v then acc + 1 else acc)
                    acc t)
                r.extra 0
            in
            acc + r.seg.seg_nulls - deleted_nulls + extra_nulls)
          d.rels 0
      in
      ignore (Atomic.compare_and_set d.nulls_memo None (Some n));
      n

(* ------------------------------------------------------------------ *)
(* Index probes: the opt-in fast paths [Semantics.Assign] and the checkers
   build their joins on.  Positions are 0-based.  Enumeration order is
   surviving segment rows (ascending) then overlay tuples (ascending). *)

let rel_cardinal d p =
  match Smap.find_opt p d.rels with None -> 0 | Some r -> rel_cardinal_of r

let iter_rel d p f =
  match Smap.find_opt p d.rels with None -> () | Some r -> rel_iter f r

let iter_matching d p ~pos v f =
  match Smap.find_opt p d.rels with
  | None -> ()
  | Some r ->
      let seg = r.seg in
      (if seg.nrows > 0 && pos < seg.arity then
         match Symtab.find v with
         | None -> ()
         | Some code ->
             let idx = force_attr_index seg pos in
             List.iter
               (fun i -> if not (Iset.mem i r.del) then f (seg_row seg i))
               (Option.value ~default:[] (Itbl.find_opt idx code)));
      Tuple.Set.iter
        (fun t -> if Array.length t > pos && Value.equal t.(pos) v then f t)
        r.extra

(* ------------------------------------------------------------------ *)
(* Code-level access: the compiled joins of [Semantics.Assign] read rows
   as codes and only decode the ones they keep.  A row handle below
   [nrows] is a segment row id; [nrows + k] is the [k]-th overlay tuple.
   Enumeration orders are those of [iter_rel] and [iter_matching]. *)

type rows = { vseg : seg; vdel : Iset.t; vsize : int; vx : overlay }

let empty_overlay = { xtuples = [||]; xcodes = [||] }
let empty_rows = { vseg = empty_seg; vdel = Iset.empty; vsize = 0; vx = empty_overlay }

let overlay_codes r =
  if r.nextra = 0 then empty_overlay
  else
    match Atomic.get r.xenc with
    | Some o -> o
    | None ->
        let xtuples = Array.of_seq (Tuple.Set.to_seq r.extra) in
        let o = { xtuples; xcodes = Array.map Symtab.intern_all xtuples } in
        if Atomic.compare_and_set r.xenc None (Some o) then o
        else Option.value ~default:o (Atomic.get r.xenc)

let rows d p =
  match Smap.find_opt p d.rels with
  | None -> empty_rows
  | Some r ->
      { vseg = r.seg; vdel = r.del; vsize = rel_cardinal_of r; vx = overlay_codes r }

let rows_cardinal v = v.vsize

let row_arity v h =
  if h < v.vseg.nrows then v.vseg.arity else Array.length v.vx.xcodes.(h - v.vseg.nrows)

let row_code v h j =
  if h < v.vseg.nrows then v.vseg.cols.(j).(h) else v.vx.xcodes.(h - v.vseg.nrows).(j)

let row_tuple v h =
  if h < v.vseg.nrows then seg_row v.vseg h else v.vx.xtuples.(h - v.vseg.nrows)

let iter_rows v f =
  let seg = v.vseg and xt = v.vx.xtuples in
  let n = seg.nrows and nx = Array.length xt in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if not (Iset.mem i v.vdel) then begin
      while !k < nx && compare_tuple_row xt.(!k) seg i < 0 do
        f (n + !k);
        incr k
      done;
      f i
    end
  done;
  for k = !k to nx - 1 do
    f (n + k)
  done

(* The scans below are top-level recursions, not local closures: the
   consequent probes of a check run them once per antecedent match. *)
let rec exists_seg_from v p i =
  i < v.vseg.nrows
  && (((not (Iset.mem i v.vdel)) && p i) || exists_seg_from v p (i + 1))

let rec exists_over_from v p k =
  k < Array.length v.vx.xcodes && (p (v.vseg.nrows + k) || exists_over_from v p (k + 1))

let exists_rows v p = exists_seg_from v p 0 || exists_over_from v p 0

let postings v pos code =
  let seg = v.vseg in
  if seg.nrows = 0 || pos >= seg.arity || code < 0 then []
  else
    match Itbl.find (force_attr_index seg pos) code with
    | ids -> ids
    | exception Not_found -> []

let rec iter_live del f = function
  | [] -> ()
  | i :: rest ->
      if not (Iset.mem i del) then f i;
      iter_live del f rest

let rec exists_live del p = function
  | [] -> false
  | i :: rest -> ((not (Iset.mem i del)) && p i) || exists_live del p rest

let overlay_has v k pos code =
  let c = v.vx.xcodes.(k) in
  Array.length c > pos && c.(pos) = code

let iter_rows_with_code v ~pos code f =
  iter_live v.vdel f (postings v pos code);
  for k = 0 to Array.length v.vx.xcodes - 1 do
    if overlay_has v k pos code then f (v.vseg.nrows + k)
  done

let rec exists_over_code v pos code p k =
  k < Array.length v.vx.xcodes
  && ((overlay_has v k pos code && p (v.vseg.nrows + k))
     || exists_over_code v pos code p (k + 1))

let exists_rows_with_code v ~pos code p =
  exists_live v.vdel p (postings v pos code) || exists_over_code v pos code p 0

(* ------------------------------------------------------------------ *)

let pp ppf d = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Atom.pp) (atoms d)

let pp_inline ppf d =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Atom.pp) (atoms d)
