module Smap = Map.Make (String)
module Iset = Set.Make (Int)
module Vset = Set.Make (Value)

(* An overlay's tuples: the repair search adds and removes them one at a
   time, persistently, which a balanced tree does in O(log n); answer
   sets ([Tuple.Set]) are built in bulk instead. *)
module Tset = Set.Make (Tuple)

(* Index tables keyed by codes: dense non-negative ints that need no
   further hashing, compared without the polymorphic primitives of the
   generic [Hashtbl]. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (k : int) = k land max_int
end)

(* ------------------------------------------------------------------ *)
(* Columnar representation.

   A relation is an immutable {e segment} — tuples interned through
   {!Symtab} and stored as per-attribute int columns, sorted by
   [Tuple.compare] and deduplicated, with lazily built per-attribute
   postings; membership is a binary search over the sorted rows — plus a
   persistent overlay: a set of deleted segment row ids and a functional
   set of extra tuples.  Bulk loads ([build], [of_atoms]) build segments
   directly;
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

(* The postings of one column: the segment's row ids grouped by code,
   ascending within a group, in one int array.  A code's group is found
   through an array over the column's code span where that span is at
   most twice the rows ([lo >= 0]), else through an open-addressed table
   ([lo = -1]); both are int arrays, so a probe boxes nothing and a
   built index holds no pointer for the collector to scan. *)
type postings = {
  ids : int array;
  lo : int; (* dense: the column's least code; sparse: [-1] *)
  dir : int array;
      (* dense: the group of code [c] is [ids.(dir.(c - lo)) ..
         ids.(dir.(c - lo + 1) - 1)]; sparse: slots of two cells, a code
         ([-1] when the slot is empty) and its group as
         [start lsl group_bits lor length] *)
}

type seg = {
  arity : int;
  nrows : int;
  cols : int array array; (* [arity] columns of [nrows] codes *)
  seg_nulls : int; (* null occurrences across all rows *)
  attr_index : postings option Atomic.t array; (* per column, built on first probe *)
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
  extra : Tset.t;
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

let seg_codes seg =
  force_index seg.seg_codes seg (fun () ->
      let s = ref Iset.empty in
      Array.iter (fun col -> Array.iter (fun c -> s := Iset.add c !s) col) seg.cols;
      !s)

(* Row id of the tuple in the segment, or [-1]: a binary search over the
   sorted rows, comparing values in place.  It takes no lock, builds no
   index and allocates nothing, and a tuple holding a constant never
   interned simply compares unequal to every row. *)
let rec seg_search (t : Tuple.t) seg lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let c = compare_row_from t seg mid 0 in
    if c = 0 then mid
    else if c < 0 then seg_search t seg lo mid
    else seg_search t seg (mid + 1) hi

let seg_find seg (t : Tuple.t) =
  if Array.length t <> seg.arity then -1 else seg_search t seg 0 seg.nrows

let seg_of_cols ~arity ~nrows cols =
  let nulls = ref 0 in
  Array.iter
    (fun col ->
      for i = 0 to nrows - 1 do
        if col.(i) = Symtab.null_id then incr nulls
      done)
    cols;
  {
    arity;
    nrows;
    cols;
    seg_nulls = !nulls;
    attr_index = Array.init arity (fun _ -> Atomic.make None);
    seg_codes = Atomic.make None;
    lock = Mutex.create ();
  }

(* A segment of rows already sorted and distinct, interned a row at a
   time. *)
let build_seg ~arity (rows : Tuple.t array) =
  let nrows = Array.length rows in
  let cols = Array.init arity (fun _ -> Array.make nrows 0) in
  let codes = Array.make arity 0 in
  for i = 0 to nrows - 1 do
    Symtab.intern_row rows.(i) arity codes 0;
    for j = 0 to arity - 1 do
      cols.(j).(i) <- codes.(j)
    done
  done;
  seg_of_cols ~arity ~nrows cols

let mk_rel seg del ndel extra nextra =
  { seg; del; ndel; extra; nextra; xenc = Atomic.make None }

(* Same overlay, new deletions: the encoded overlay carries over. *)
let with_del r del ndel = { r with del; ndel }

let overlay_rel ts = mk_rel empty_seg Iset.empty 0 ts (Tset.cardinal ts)

(* Build a relation from sorted, deduplicated tuples.  Mixed arities (legal
   under set semantics, if exotic) keep the most common arity columnar and
   overflow the rest into the overlay; [Tuple.compare] orders by arity
   first, so both groups stay sorted. *)
let rel_of_sorted_array (rows : Tuple.t array) =
  let n = Array.length rows in
  if n = 0 then None
  else if n < seg_min then Some (overlay_rel (Tset.of_list (Array.to_list rows)))
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
      (mk_rel (build_seg ~arity seg_rows) Iset.empty 0 (Tset.of_list rest)
         (List.length rest))
  end

let rel_cardinal_of r = r.seg.nrows - r.ndel + r.nextra
let rel_is_empty r = rel_cardinal_of r = 0

let rel_mem r t =
  Tset.mem t r.extra
  ||
  let i = seg_find r.seg t in
  i >= 0 && not (Iset.mem i r.del)

(* Live tuples of a relation in [Tuple.compare] order: one merge of the
   surviving segment rows (sorted by construction) into the overlay set's
   own traversal.  A row is compared with the overlay in place and
   decoded only when it is passed on, so the walk allocates the decoded
   tuples and nothing per row beyond them. *)
let rel_iter f r =
  let seg = r.seg in
  let i = ref 0 in
  Tset.iter
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
  if Tset.mem t r.extra then r
  else
    let i = seg_find r.seg t in
    if i >= 0 then
      if Iset.mem i r.del then with_del r (Iset.remove i r.del) (r.ndel - 1) else r
    else
      let r = mk_rel r.seg r.del r.ndel (Tset.add t r.extra) (r.nextra + 1) in
      if r.nextra > compact_threshold r.seg then compact_rel r else r

let rel_remove r t =
  if Tset.mem t r.extra then
    mk_rel r.seg r.del r.ndel (Tset.remove t r.extra) (r.nextra - 1)
  else
    let i = seg_find r.seg t in
    if i >= 0 && not (Iset.mem i r.del) then with_del r (Iset.add i r.del) (r.ndel + 1)
    else r

let add a d =
  let p = Atom.pred a and t = Atom.args a in
  match Smap.find_opt p d.rels with
  | None -> mk (Smap.add p (overlay_rel (Tset.singleton t)) d.rels)
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

(* ------------------------------------------------------------------ *)
(* Bulk build from codes.

   A builder collects one relation's rows as codes, interned a row at a
   time as they arrive, in any order and with duplicates.  [build] ranks
   the distinct codes of all its builders once by [Value.compare], sorts
   each relation's rows by rank and drops the duplicates: rank order is
   [Tuple.compare] order over one arity, which the segment invariant asks
   for.  Ranks and sorts are radix passes over int arrays, so a build
   compares no boxed values and allocates no closure per comparison, and
   every table it makes is sized by the rows given, never by the symbol
   table, which a server shares between all its sessions. *)

type builder = {
  bpred : string;
  barity : int;
  mutable bcodes : int array; (* [bcount] rows of [barity] codes, row-major *)
  mutable bcount : int;
}

let builder pred ~arity = { bpred = pred; barity = arity; bcodes = [||]; bcount = 0 }

let add_row b (vs : Value.t array) =
  let a = b.barity in
  let need = (b.bcount + 1) * a in
  if need > Array.length b.bcodes then begin
    let bigger = Array.make (max need (max 64 (2 * Array.length b.bcodes))) 0 in
    Array.blit b.bcodes 0 bigger 0 (b.bcount * a);
    b.bcodes <- bigger
  end;
  Symtab.intern_row vs a b.bcodes (b.bcount * a);
  b.bcount <- b.bcount + 1

let radix_bits = 11
let radix_mask = (1 lsl radix_bits) - 1

(* Sort [perm], indices into [keys], by their keys read as unsigned
   numbers: a stable least-significant-digit radix sort, [radix_bits] a
   pass, that skips the passes on which every key has the same digit.
   Below [radix_min] elements a merge sort is cheaper than one pass's
   count array. *)
let radix_min = 256

let radix_sort (keys : int array) (perm : int array) =
  let n = Array.length perm in
  if n < radix_min then
    Array.stable_sort
      (fun x y -> Int.compare (keys.(x) lxor min_int) (keys.(y) lxor min_int))
      perm
  else begin
    let bits = ref 0 in
    Array.iter (fun x -> bits := !bits lor keys.(x)) perm;
    let count = Array.make (radix_mask + 2) 0 in
    let src = ref perm and dst = ref (Array.make n 0) in
    let shift = ref 0 in
    while !shift < Sys.int_size && !bits lsr !shift <> 0 do
      let s = !src and d = !dst and sh = !shift in
      Array.fill count 0 (radix_mask + 2) 0;
      for i = 0 to n - 1 do
        let b = ((keys.(s.(i)) lsr sh) land radix_mask) + 1 in
        count.(b) <- count.(b) + 1
      done;
      if count.(((keys.(s.(0)) lsr sh) land radix_mask) + 1) < n then begin
        for b = 1 to radix_mask + 1 do
          count.(b) <- count.(b) + count.(b - 1)
        done;
        for i = 0 to n - 1 do
          let x = s.(i) in
          let b = (keys.(x) lsr sh) land radix_mask in
          d.(count.(b)) <- x;
          count.(b) <- count.(b) + 1
        done;
        src := d;
        dst := s
      end;
      shift := !shift + radix_bits
    done;
    if !src != perm then Array.blit !src 0 perm 0 n
  end

(* A string's first seven bytes, big-endian: unsigned order on the keys is
   [String.compare] order up to ties, which [rank_in_place] breaks. *)
let prefix_key s =
  let k = ref 0 in
  for j = 0 to 6 do
    k := (!k lsl 8) lor if j < String.length s then Char.code s.[j] else 0
  done;
  !k

(* Replace every code in [cells] by a dense id, in order of first
   occurrence, and return the codes by id.  An array over the codes' span
   finds each code's id where the span is at most twice the number of
   cells (the codes of a fresh process, or of a file of new values), a
   hash table otherwise: either way the table grows with the cells, not
   with the symbol table. *)
let ids_in_place (cells : int array) =
  let n = Array.length cells in
  let code_of_id = Array.make n 0 and m = ref 0 in
  let fresh c =
    code_of_id.(!m) <- c;
    incr m;
    !m - 1
  in
  let lo = Array.fold_left Int.min max_int cells and hi = Array.fold_left Int.max 0 cells in
  if n > 0 && hi - lo < 2 * n then begin
    let id = Array.make (hi - lo + 1) (-1) in
    for i = 0 to n - 1 do
      let k = cells.(i) - lo in
      if id.(k) < 0 then id.(k) <- fresh cells.(i);
      cells.(i) <- id.(k)
    done
  end
  else begin
    let id = Itbl.create 64 in
    for i = 0 to n - 1 do
      let c = cells.(i) in
      cells.(i) <-
        (match Itbl.find_opt id c with
        | Some x -> x
        | None ->
            let x = fresh c in
            Itbl.add id c x;
            x)
    done
  end;
  Array.sub code_of_id 0 !m

(* Replace every code in [cells] by its rank among the distinct codes of
   [cells] under [Value.compare], and return the codes by rank.  That order
   is null, then ints, then strings: ints are ranked by their bits with the
   sign flipped, strings by their prefix keys, then [String.compare] within
   a run of equal keys. *)
let rank_in_place (cells : int array) =
  let code_of_id = ids_in_place cells in
  let m = Array.length code_of_id in
  let key = Array.make m 0 in
  let null = ref (-1) and nints = ref 0 in
  for id = 0 to m - 1 do
    match Symtab.value code_of_id.(id) with
    | Value.Null -> null := id
    | Value.Int i ->
        incr nints;
        key.(id) <- i lxor min_int
    | Value.Str s -> key.(id) <- prefix_key s
  done;
  let ints = Array.make !nints 0 and strs = Array.make (m - !nints - Bool.to_int (!null >= 0)) 0 in
  let ki = ref 0 and ks = ref 0 in
  for id = 0 to m - 1 do
    match Symtab.value code_of_id.(id) with
    | Value.Null -> ()
    | Value.Int _ ->
        ints.(!ki) <- id;
        incr ki
    | Value.Str _ ->
        strs.(!ks) <- id;
        incr ks
  done;
  radix_sort key ints;
  radix_sort key strs;
  let str id = Value.to_string (Symtab.value code_of_id.(id)) in
  let by_string x y = String.compare (str x) (str y) in
  let i = ref 0 in
  while !i < Array.length strs do
    let j = ref (!i + 1) in
    while !j < Array.length strs && key.(strs.(!j)) = key.(strs.(!i)) do
      incr j
    done;
    if !j - !i > 1 then begin
      let run = Array.sub strs !i (!j - !i) in
      Array.stable_sort by_string run;
      Array.blit run 0 strs !i (!j - !i)
    end;
    i := !j
  done;
  let code_of_rank = Array.make m 0 and rank_of_id = key in
  let rank = ref 0 in
  let place id =
    rank_of_id.(id) <- !rank;
    code_of_rank.(!rank) <- code_of_id.(id);
    incr rank
  in
  if !null >= 0 then place !null;
  Array.iter place ints;
  Array.iter place strs;
  Array.iteri (fun i id -> cells.(i) <- rank_of_id.(id)) cells;
  code_of_rank

let rec same_row (cells : int array) arity p q j =
  j >= arity
  || (cells.(p + j) = cells.(q + j) && same_row cells arity p q (j + 1))

(* The relation of [count] rows of ranks at [cells.(off)], row-major: rows
   sorted a column at a time from the last, duplicates dropped, ranks
   turned back into codes. *)
let rel_of_ranked code_of_rank cells off ~arity ~count =
  let perm = Array.init count Fun.id in
  if arity > 0 && count > 1 then begin
    let key = Array.make count 0 in
    for j = arity - 1 downto 0 do
      for i = 0 to count - 1 do
        key.(i) <- cells.(off + (i * arity) + j)
      done;
      radix_sort key perm
    done
  end;
  let k = ref 0 in
  for i = 0 to count - 1 do
    let row = perm.(i) in
    if i = 0 || not (same_row cells arity (off + (row * arity)) (off + (perm.(!k - 1) * arity)) 0)
    then begin
      perm.(!k) <- row;
      incr k
    end
  done;
  let nrows = !k in
  let code i j = code_of_rank.(cells.(off + (perm.(i) * arity) + j)) in
  if nrows = 0 then None
  else if nrows < seg_min then
    Some
      (overlay_rel
         (Tset.of_list
            (List.init nrows (fun i -> Array.init arity (fun j -> Symtab.value (code i j))))))
  else begin
    let cols = Array.init arity (fun _ -> Array.make nrows 0) in
    for j = 0 to arity - 1 do
      let col = cols.(j) in
      for i = 0 to nrows - 1 do
        col.(i) <- code i j
      done
    done;
    Some (mk_rel (seg_of_cols ~arity ~nrows cols) Iset.empty 0 Tset.empty 0)
  end

let cells_of b = b.bcount * b.barity

let add_built builders rels =
  match builders with
  | [] -> rels
  | _ ->
      let cells = Array.make (List.fold_left (fun n b -> n + cells_of b) 0 builders) 0 in
      ignore
        (List.fold_left
           (fun off b ->
             Array.blit b.bcodes 0 cells off (cells_of b);
             off + cells_of b)
           0 builders);
      let code_of_rank = rank_in_place cells in
      fst
        (List.fold_left
           (fun (rels, off) b ->
             let rels =
               match
                 rel_of_ranked code_of_rank cells off ~arity:b.barity ~count:b.bcount
               with
               | Some r -> Smap.add b.bpred r rels
               | None -> rels
             in
             (rels, off + cells_of b))
           (rels, 0) builders)

let build builders = mk (add_built builders Smap.empty)

(* Relations of one arity and at least [seg_min] tuples go through a
   builder; the rest, where a segment could only cost (the repair search
   churns through thousands of tiny instances) or the arities are mixed,
   are sorted as tuples. *)
let of_atoms atoms =
  let tbl : (string, Tuple.t list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let p = Atom.pred a in
      match Hashtbl.find_opt tbl p with
      | Some l -> l := Atom.args a :: !l
      | None -> Hashtbl.add tbl p (ref [ Atom.args a ]))
    atoms;
  let builders, rels =
    Hashtbl.fold
      (fun p l (builders, rels) ->
        match !l with
        | t :: rest
          when List.compare_length_with rest (seg_min - 1) >= 0
               && List.for_all (fun u -> Tuple.arity u = Tuple.arity t) rest ->
            let b = builder p ~arity:(Tuple.arity t) in
            List.iter (add_row b) !l;
            (b :: builders, rels)
        | ts ->
            let s = Tset.of_list ts in
            let r =
              if Tset.cardinal s < seg_min then overlay_rel s
              else Option.get (rel_of_sorted_array (Array.of_list (Tset.elements s)))
            in
            (builders, Smap.add p r rels))
      tbl ([], Smap.empty)
  in
  mk (add_built builders rels)

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

(* The walk is in [Tuple.compare] order and distinct: [of_array] checks
   it in one pass and sorts nothing. *)
let tuples d p =
  match Smap.find_opt p d.rels with
  | None -> Tuple.Set.empty
  | Some r -> Tuple.Set.of_array (rel_live_array r)

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
    let extra = Tset.union ra.extra rb.extra in
    Some (mk_rel ra.seg del (Iset.cardinal del) extra (Tset.cardinal extra))
  else if ra.seg.nrows = 0 && rb.seg.nrows = 0 then
    Some (overlay_rel (Tset.union ra.extra rb.extra))
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
    let extra = Tset.diff ra.extra rb.extra in
    let merged = merge_sorted rows (Tset.elements extra) in
    rel_generic_of_tuples merged
  else if ra.seg.nrows = 0 && rb.seg.nrows = 0 then
    let s = Tset.diff ra.extra rb.extra in
    if Tset.is_empty s then None else Some (overlay_rel s)
  else
    let kept = rel_fold (fun t acc -> if rel_mem rb t then acc else t :: acc) ra [] in
    rel_generic_of_tuples (List.rev kept)

let rel_inter ra rb =
  if ra == rb then Some ra
  else if ra.seg == rb.seg then
    let del = Iset.union ra.del rb.del in
    let extra = Tset.inter ra.extra rb.extra in
    let r = mk_rel ra.seg del (Iset.cardinal del) extra (Tset.cardinal extra) in
    if rel_is_empty r then None else Some r
  else if ra.seg.nrows = 0 && rb.seg.nrows = 0 then
    let s = Tset.inter ra.extra rb.extra in
    if Tset.is_empty s then None else Some (overlay_rel s)
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
    Iset.subset rb.del ra.del && Tset.subset ra.extra rb.extra
  else if ra.seg.nrows = 0 && rb.seg.nrows = 0 then
    Tset.subset ra.extra rb.extra
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

(* [compare] replicates the oracle's order — [Smap.compare] of tuple sets
   over the never-empty per-predicate map — exactly: lexicographic over the
   (predicate, tuple-sequence) stream, an exhausted side ordering first.
   Sorted repair lists, search-state dedup and the goldens all depend on
   this order being stable across representations. *)
let rel_compare ra rb =
  if ra == rb then 0
  else if ra.seg.nrows = 0 && rb.seg.nrows = 0 then
    Tset.compare ra.extra rb.extra
  else if
    ra.seg == rb.seg && Iset.equal ra.del rb.del && Tset.equal ra.extra rb.extra
  then 0
  else
    merge_compare ra 0 (Tset.elements ra.extra) rb 0
      (Tset.elements rb.extra)

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
            Tset.fold
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
              Tset.fold
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
(* Postings, built on a column's first probe.

   Dense: one counting pass over the column's codes, the group ends as
   prefix sums, and a backward pass that fills each group from its end,
   so ids ascend within a group; [ids] and [dir] together take at most
   [3 * nrows + 2] words.  Sparse: the row ids sorted by code with the
   stable radix sort of the bulk build, and a table of two slots per
   distinct code, probed linearly from the code's hash scaled to the
   capacity; the table takes four words per distinct code. *)

let group_bits = 31
let group_mask = (1 lsl group_bits) - 1

(* The code's home slot among [cap]: the high 31 bits of a multiplicative
   hash, scaled to [0, cap) by one multiplication and a shift, which stays
   below [max_int] for any capacity under [2^31]. *)
let home code cap = ((((code * 0x278DDE6E5FD29F05) lsr 32) land 0x7FFF_FFFF) * cap) lsr 31

let dense_postings col nrows lo hi =
  let span = hi - lo + 1 in
  let dir = Array.make (span + 1) 0 in
  for i = 0 to nrows - 1 do
    let k = col.(i) - lo in
    dir.(k) <- dir.(k) + 1
  done;
  for k = 1 to span - 1 do
    dir.(k) <- dir.(k) + dir.(k - 1)
  done;
  dir.(span) <- nrows;
  let ids = Array.make nrows 0 in
  for i = nrows - 1 downto 0 do
    let k = col.(i) - lo in
    let e = dir.(k) - 1 in
    dir.(k) <- e;
    ids.(e) <- i
  done;
  { ids; lo; dir }

let sparse_postings col nrows =
  let ids = Array.init nrows Fun.id in
  radix_sort col ids;
  let distinct = ref 0 in
  for k = 0 to nrows - 1 do
    if k = 0 || col.(ids.(k)) <> col.(ids.(k - 1)) then incr distinct
  done;
  let cap = 2 * !distinct in
  let dir = Array.make (2 * cap) (-1) in
  let k = ref 0 in
  while !k < nrows do
    let c = col.(ids.(!k)) in
    let stop = ref (!k + 1) in
    while !stop < nrows && col.(ids.(!stop)) = c do
      incr stop
    done;
    let s = ref (home c cap) in
    while dir.(2 * !s) >= 0 do
      s := if !s + 1 = cap then 0 else !s + 1
    done;
    dir.(2 * !s) <- c;
    dir.((2 * !s) + 1) <- (!k lsl group_bits) lor (!stop - !k);
    k := !stop
  done;
  { ids; lo = -1; dir }

let build_postings seg pos =
  force_index seg.attr_index.(pos) seg (fun () ->
      let col = seg.cols.(pos) in
      let lo = Array.fold_left Int.min max_int col and hi = Array.fold_left Int.max 0 col in
      if hi - lo < 2 * seg.nrows then dense_postings col seg.nrows lo hi
      else sparse_postings col seg.nrows)

(* Built postings are read without allocating the closure that would
   build them: joins probe once per match. *)
let force_postings seg pos =
  match Atomic.get seg.attr_index.(pos) with
  | Some p -> p
  | None -> build_postings seg pos

let rec find_slot dir code cap s =
  let key = dir.(2 * s) in
  if key = code then dir.((2 * s) + 1)
  else if key < 0 then 0
  else find_slot dir code cap (if s + 1 = cap then 0 else s + 1)

(* The group of a code in the column's postings, as
   [start lsl group_bits lor length]: of length 0 when no row holds it, a
   negative code (a constant never interned) included. *)
let find_group seg pos code =
  if seg.nrows = 0 || pos >= seg.arity || code < 0 then 0
  else
    let p = force_postings seg pos in
    if p.lo >= 0 then begin
      let k = code - p.lo in
      if k < 0 || k >= Array.length p.dir - 1 then 0
      else
        let start = p.dir.(k) in
        (start lsl group_bits) lor (p.dir.(k + 1) - start)
    end
    else
      let cap = Array.length p.dir / 2 in
      find_slot p.dir code cap (home code cap)

(* [f] on the live row ids of a group, ascending. *)
let iter_group seg pos del g f =
  if g land group_mask > 0 then begin
    let ids = (force_postings seg pos).ids in
    let start = g lsr group_bits in
    let stop = start + (g land group_mask) in
    if Iset.is_empty del then
      for k = start to stop - 1 do
        f ids.(k)
      done
    else
      for k = start to stop - 1 do
        let i = ids.(k) in
        if not (Iset.mem i del) then f i
      done
  end

let rec exists_ids ids del p k stop =
  k < stop
  &&
  let i = ids.(k) in
  ((not (Iset.mem i del)) && p i) || exists_ids ids del p (k + 1) stop

let exists_group seg pos del g p =
  g land group_mask > 0
  &&
  let start = g lsr group_bits in
  exists_ids (force_postings seg pos).ids del p start (start + (g land group_mask))

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
             iter_group seg pos r.del (find_group seg pos code) (fun i -> f (seg_row seg i)));
      Tset.iter
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
        let xtuples = Array.of_seq (Tset.to_seq r.extra) in
        let o = { xtuples; xcodes = Array.map Symtab.intern_all xtuples } in
        if Atomic.compare_and_set r.xenc None (Some o) then o
        else Option.value ~default:o (Atomic.get r.xenc)

let rows d p =
  match Smap.find_opt p d.rels with
  | None -> empty_rows
  | Some r ->
      { vseg = r.seg; vdel = r.del; vsize = rel_cardinal_of r; vx = overlay_codes r }

let rows_cardinal v = v.vsize
let columns v = v.vseg.cols
let segment_rows v = v.vseg.nrows
let is_plain v = Iset.is_empty v.vdel && Array.length v.vx.xcodes = 0

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

let overlay_has v k pos code =
  let c = v.vx.xcodes.(k) in
  Array.length c > pos && c.(pos) = code

let iter_rows_with_code v ~pos code f =
  iter_group v.vseg pos v.vdel (find_group v.vseg pos code) f;
  for k = 0 to Array.length v.vx.xcodes - 1 do
    if overlay_has v k pos code then f (v.vseg.nrows + k)
  done

let rec exists_over_code v pos code p k =
  k < Array.length v.vx.xcodes
  && ((overlay_has v k pos code && p (v.vseg.nrows + k))
     || exists_over_code v pos code p (k + 1))

let exists_rows_with_code v ~pos code p =
  exists_group v.vseg pos v.vdel (find_group v.vseg pos code) p
  || exists_over_code v pos code p 0

let rec exists_over_arity v pos arity code k =
  k < Array.length v.vx.xcodes
  && (let c = v.vx.xcodes.(k) in
      (Array.length c = arity && c.(pos) = code)
     || exists_over_arity v pos arity code (k + 1))

(* Decided by the postings alone: every segment row has the segment's
   arity, so a group with a live row answers for the segment. *)
let has_code v ~pos ~arity code =
  (v.vseg.arity = arity
  &&
  let g = find_group v.vseg pos code in
  g land group_mask > 0
  && (Iset.is_empty v.vdel || exists_group v.vseg pos v.vdel g (fun _ -> true)))
  || (pos < arity && exists_over_arity v pos arity code 0)

(* ------------------------------------------------------------------ *)

let pp ppf d = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Atom.pp) (atoms d)

let pp_inline ppf d =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Atom.pp) (atoms d)
