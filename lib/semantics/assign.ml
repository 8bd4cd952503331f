module Smap = Map.Make (String)
module Value = Relational.Value
module Instance = Relational.Instance
module Symtab = Relational.Symtab

type t = Value.t Smap.t

let empty = Smap.empty
let find a x = Smap.find_opt x a

let bind a x v =
  match Smap.find_opt x a with
  | None -> Some (Smap.add x v a)
  | Some w -> if Value.equal v w then Some a else None

let lookup_exn a x = Smap.find x a

let bindings a = Smap.bindings a
let of_list l = List.fold_left (fun a (x, v) -> Smap.add x v a) empty l
let restrict a vars = Smap.filter (fun x _ -> List.mem x vars) a
let equal = Smap.equal Value.equal
let compare = Smap.compare Value.compare

let pp ppf a =
  let pp_binding ppf (x, v) = Fmt.pf ppf "%s=%a" x Value.pp v in
  Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") pp_binding) (bindings a)

let value_of_term a = function
  | Ic.Term.Const v -> Some v
  | Ic.Term.Var x -> find a x

let match_tuple a terms tuple =
  if List.length terms <> Relational.Tuple.arity tuple then None
  else
    let rec go a i = function
      | [] -> Some a
      | t :: rest -> (
          let v = tuple.(i) in
          match t with
          | Ic.Term.Const c ->
              if Value.equal c v then go a (i + 1) rest else None
          | Ic.Term.Var x -> (
              match bind a x v with
              | Some a -> go a (i + 1) rest
              | None -> None))
    in
    go a 0 terms

(* ------------------------------------------------------------------ *)
(* Compiled joins.

   A conjunction is compiled once per call into a fixed sequence of steps
   over interned codes.  Every variable gets a slot of an int array: the
   seed's variables first, then the others in the order the join binds
   them.  Each step matches one atom against one relation view
   ({!Instance.rows}), position by position: a constant's code or an
   already bound slot must equal the row's code, an unbound variable binds
   its slot.  Rows are never decoded during the search; bindings and
   witness atoms are built only for the matches a caller keeps.

   The step order is greedy: at each step the not-yet-matched atom with
   the most bound positions (constants and variables bound before it),
   ties to the smaller relation, then to the earlier atom.  Which
   variables are bound before a step depends only on the atoms matched so
   far, never on the values, so the whole order is known before the first
   row is read.  A step with a bound position
   probes the column's postings on the first such position; otherwise it
   scans.  Probes and scans enumerate rows in the order of
   {!Instance.iter_matching} and {!Instance.iter_rel}, so the matches come
   out in the order a Value-level join over those functions produces
   (test/join_oracle.ml).

   A step reads a segment row's codes straight from the segment's
   columns ({!Instance.columns}) and scans a segment with no deletion and
   no overlay as a plain loop: this library is compiled without
   cross-module inlining under dune's default (dev) profile, where
   [-opaque] makes every [Instance.row_code] a real call, one per column
   per row.  Only overlay tuples are read through {!Instance}. *)

type assign = t

(* A constant never interned occurs in no instance; its code [-1] matches
   no row. *)
let code_of v = match Symtab.find v with Some c -> c | None -> -1

type op =
  | Code of int  (** the row holds this code here *)
  | Same of int  (** the row holds the slot's code here *)
  | Bind of int  (** the row's code here binds the slot *)

(* One relation view as a step reads it: segment rows from the columns,
   overlay tuples (handles from [nseg] on) through [Instance]. *)
type src = { view : Instance.rows; cols : int array array; nseg : int }

let src_of view =
  { view; cols = Instance.columns view; nseg = Instance.segment_rows view }

let rec apply_cols cols h ops slots j n =
  j >= n
  ||
  let c = cols.(j).(h) in
  match ops.(j) with
  | Code k -> c = k && apply_cols cols h ops slots (j + 1) n
  | Same s -> c = slots.(s) && apply_cols cols h ops slots (j + 1) n
  | Bind s ->
      slots.(s) <- c;
      apply_cols cols h ops slots (j + 1) n

let rec apply view h ops slots j n =
  j >= n
  ||
  let c = Instance.row_code view h j in
  match ops.(j) with
  | Code k -> c = k && apply view h ops slots (j + 1) n
  | Same s -> c = slots.(s) && apply view h ops slots (j + 1) n
  | Bind s ->
      slots.(s) <- c;
      apply view h ops slots (j + 1) n

let row_matches src ops slots h =
  let n = Array.length ops in
  if h < src.nseg then Array.length src.cols = n && apply_cols src.cols h ops slots 0 n
  else Instance.row_arity src.view h = n && apply src.view h ops slots 0 n

(* The ops of one atom given the variables bound before it ([slot_of]
   answers [-1] for the others, [fresh] allocates a slot), and the first
   position known before reading a row. *)
let compile_atom ~slot_of ~fresh atom =
  let local = ref [] in
  let probe = ref (-1) in
  let ops =
    List.mapi
      (fun i t ->
        match t with
        | Ic.Term.Const v ->
            if !probe < 0 then probe := i;
            Code (code_of v)
        | Ic.Term.Var x -> (
            match List.assoc_opt x !local with
            | Some s -> Same s
            | None ->
                let s = slot_of x in
                if s >= 0 then begin
                  if !probe < 0 then probe := i;
                  Same s
                end
                else begin
                  let s = fresh x in
                  local := (x, s) :: !local;
                  Bind s
                end))
      (Ic.Patom.terms atom)
  in
  (Array.of_list ops, !probe)

let scan_or_probe src ops probe slots visit =
  let view = src.view in
  if probe < 0 then
    if Instance.is_plain view then fun () ->
      for h = 0 to src.nseg - 1 do
        visit h
      done
    else fun () -> Instance.iter_rows view visit
  else
    match ops.(probe) with
    | Code c -> fun () -> Instance.iter_rows_with_code view ~pos:probe c visit
    | Same s -> fun () -> Instance.iter_rows_with_code view ~pos:probe slots.(s) visit
    | Bind _ -> assert false

(* no seed value is physically this one *)
let unseeded = Value.str "unseeded"

module Join = struct
  type t = {
    names : string array;  (* slot -> variable *)
    nseeded : int;  (* slots below this come from the seed *)
    slots : int array;
    seeded_values : Value.t array;  (* the values the seeded slots encode *)
    preds : string array;  (* per atom, in conjunction order *)
    views : Instance.rows array;
    handles : int array;  (* per atom, the matched row *)
    first_key : int;  (* the seeded slot the first step probes on, or -1 *)
    mutable stale : bool;  (* other seeded slots not yet encoded *)
    mutable seed : assign;
    mutable on_match : unit -> unit;
    mutable run : unit -> unit;
  }

  (* A seed value is encoded once for as long as successive seeds hold it
     (physically): enumerations vary one variable at a time.  A code of
     [-1] stays valid, since the views were taken before the lookup. *)
  let encode j s =
    let v = lookup_exn j.seed j.names.(s) in
    if v != j.seeded_values.(s) then begin
      j.seeded_values.(s) <- v;
      j.slots.(s) <- code_of v
    end

  let encode_rest j =
    for s = 0 to j.nseeded - 1 do
      if s <> j.first_key then encode j s
    done;
    j.stale <- false

  let compile d ~bound atoms =
    let arr = Array.of_list atoms in
    let n = Array.length arr in
    (* views first: they intern the overlays, so constants encoded after
       them find every code the relations hold *)
    let views = Array.map (fun a -> Instance.rows d (Ic.Patom.pred a)) arr in
    let names = ref [] and count = ref 0 in
    let fresh x =
      names := x :: !names;
      incr count;
      !count - 1
    in
    let slot_of x =
      let rec go i = function
        | [] -> -1
        | y :: rest -> if String.equal x y then i else go (i - 1) rest
      in
      go (!count - 1) !names
    in
    let occurs x =
      Array.exists
        (fun a ->
          List.exists
            (function Ic.Term.Var y -> String.equal x y | Ic.Term.Const _ -> false)
            (Ic.Patom.terms a))
        arr
    in
    List.iter (fun x -> if occurs x && slot_of x < 0 then ignore (fresh x)) bound;
    let nseeded = !count in
    let used = Array.make n false in
    let score a =
      List.fold_left
        (fun k t ->
          match t with
          | Ic.Term.Const _ -> k + 1
          | Ic.Term.Var x -> if slot_of x >= 0 then k + 1 else k)
        0 (Ic.Patom.terms a)
    in
    let steps = ref [] in
    for _ = 1 to n do
      let best = ref (-1) and best_key = ref (-1, 0) in
      for i = 0 to n - 1 do
        if not used.(i) then begin
          let key = (score arr.(i), -Instance.rows_cardinal views.(i)) in
          if !best = -1 || key > !best_key then begin
            best := i;
            best_key := key
          end
        end
      done;
      let i = !best in
      used.(i) <- true;
      let ops, probe = compile_atom ~slot_of ~fresh arr.(i) in
      steps := (i, ops, probe) :: !steps
    done;
    let steps = List.rev !steps in
    let first_key =
      match steps with
      | (_, ops, probe) :: _ when probe >= 0 -> (
          match ops.(probe) with Same s when s < nseeded -> s | Same _ | Code _ | Bind _ -> -1)
      | _ -> -1
    in
    let j =
      {
        names = Array.of_list (List.rev !names);
        nseeded;
        slots = Array.make !count 0;
        seeded_values = Array.make nseeded unseeded;
        preds = Array.map Ic.Patom.pred arr;
        views;
        handles = Array.make n 0;
        first_key;
        stale = false;
        seed = empty;
        on_match = ignore;
        run = ignore;
      }
    in
    let rec chain first = function
      | [] -> fun () -> j.on_match ()
      | (i, ops, probe) :: rest ->
          let next = chain false rest and src = src_of views.(i) in
          let visit h =
            if row_matches src ops j.slots h then begin
              j.handles.(i) <- h;
              next ()
            end
          in
          let visit =
            if first && nseeded > 0 then fun h ->
              if j.stale then encode_rest j;
              visit h
            else visit
          in
          scan_or_probe src ops probe j.slots visit
    in
    j.run <- chain true steps;
    j

  (* Only the first step's probe key is encoded before the first row: a
     probe that finds nothing (most tests of an enumeration) looks up no
     other seed value. *)
  let iter j seed f =
    j.seed <- seed;
    j.on_match <- f;
    if j.first_key >= 0 then encode j j.first_key;
    j.stale <- true;
    j.run ()

  let rec slot_from names x i =
    if i >= Array.length names then -1
    else if String.equal names.(i) x then i
    else slot_from names x (i + 1)

  let slot j x = slot_from j.names x 0

  let code j s = j.slots.(s)

  let value j s =
    if s < j.nseeded then lookup_exn j.seed j.names.(s) else Symtab.value j.slots.(s)

  let lookup j x =
    let s = slot j x in
    if s >= 0 then value j s else lookup_exn j.seed x

  let rec any_null j slots i =
    i < Array.length slots
    && (j.slots.(slots.(i)) = Symtab.null_id || any_null j slots (i + 1))

  let any_null j slots = any_null j slots 0

  let slots_of j xs =
    Array.of_list (List.filter (fun s -> s >= 0) (List.map (slot j) xs))

  (* bindings added in slot order, i.e. in join order, position by
     position: the sequence of insertions a Value-level join makes, so
     the map has the same shape *)
  let assignment j =
    let a = ref j.seed in
    for s = j.nseeded to Array.length j.slots - 1 do
      a := Smap.add j.names.(s) (Symtab.value j.slots.(s)) !a
    done;
    !a

  let witness j =
    List.init (Array.length j.preds) (fun i ->
        Relational.Atom.of_tuple j.preds.(i)
          (Instance.row_tuple j.views.(i) j.handles.(i)))

  (* Existence of a row matching [atom] under the current match: the
     atom's own slots start with copies of the join's slots it reads
     ([imports]); its other variables bind as consistent wildcards. *)
  let probe j d atom =
    let view = Instance.rows d (Ic.Patom.pred atom) in
    let imports = ref [] and count = ref 0 in
    let fresh x =
      imports := (x, -1) :: !imports;
      incr count;
      !count - 1
    in
    (* variables of the join become imported slots on first sight *)
    let slot_of x =
      let outer = slot j x in
      if outer < 0 then -1
      else begin
        imports := (x, outer) :: !imports;
        incr count;
        !count - 1
      end
    in
    let ops, probe = compile_atom ~slot_of ~fresh atom in
    let imported = Array.of_list (List.rev_map snd !imports) in
    let local = Array.make !count 0 in
    let src = src_of view in
    let test h = row_matches src ops local h in
    let import () =
      for l = 0 to Array.length imported - 1 do
        let outer = imported.(l) in
        if outer >= 0 then local.(l) <- j.slots.(outer)
      done
    in
    let arity = Array.length ops in
    (* every position but the probed one binds a variable of its own: a
       live row of the atom's arity in the probed group is a match *)
    let binds =
      Array.fold_left (fun k op -> match op with Bind _ -> k + 1 | Code _ | Same _ -> k) 0 ops
    in
    let decided = probe >= 0 && binds = arity - 1 in
    if probe < 0 then fun () ->
      import ();
      Instance.exists_rows view test
    else
      match ops.(probe) with
      | Code c when decided -> fun () -> Instance.has_code view ~pos:probe ~arity c
      | Same s when decided ->
          let outer = imported.(s) in
          fun () -> Instance.has_code view ~pos:probe ~arity j.slots.(outer)
      | Code c -> fun () ->
          import ();
          Instance.exists_rows_with_code view ~pos:probe c test
      | Same s -> fun () ->
          import ();
          Instance.exists_rows_with_code view ~pos:probe local.(s) test
      | Bind _ -> assert false

  (* [=] and [≠] with no offset whose sides are slots or constants compare
     codes: equal values share one code.  A side whose code is [-1] (a
     constant or a seed value never interned) is decoded, since two such
     values may or may not be equal. *)
  type side = Slot of int | Const of int * Value.t

  let side_code j = function Slot s -> j.slots.(s) | Const (c, _) -> c
  let side_value j = function Slot s -> value j s | Const (_, v) -> v

  let same j a b =
    let x = side_code j a and y = side_code j b in
    if x >= 0 && y >= 0 then x = y else Value.equal (side_value j a) (side_value j b)

  let builtin j (b : Ic.Builtin.t) =
    let decoded () =
      let lookup = lookup j in
      fun () -> Ic.Builtin.eval lookup b
    in
    let side (e : Ic.Builtin.expr) =
      if e.offset <> 0 then None
      else
        match e.base with
        | Ic.Term.Const v -> Some (Const (code_of v, v))
        | Ic.Term.Var x ->
            let s = slot j x in
            if s >= 0 then Some (Slot s) else None
    in
    match b with
    | Ic.Builtin.Cmp (((Eq | Neq) as op), l, r) -> (
        match (side l, side r) with
        | Some l, Some r ->
            if op = Eq then fun () -> same j l r else fun () -> not (same j l r)
        | _ -> decoded ())
    | Ic.Builtin.Cmp _ | Ic.Builtin.False -> decoded ()

  let builtins j phi =
    let tests = Array.of_list (List.map (builtin j) phi) in
    let rec holds k = k < Array.length tests && (tests.(k) () || holds (k + 1)) in
    fun () -> holds 0
end

let vars_of a = List.map fst (bindings a)

let iter_join_with_witness d a atoms ~f =
  let j = Join.compile d ~bound:(vars_of a) atoms in
  Join.iter j a (fun () -> f (Join.assignment j) (Join.witness j))

let join_with_witness d a atoms =
  let results = ref [] in
  iter_join_with_witness d a atoms ~f:(fun theta ws ->
      results := (theta, ws) :: !results);
  List.rev !results

let join d a atoms =
  let j = Join.compile d ~bound:(vars_of a) atoms in
  let results = ref [] in
  Join.iter j a (fun () -> results := Join.assignment j :: !results);
  List.rev !results

let atom_matches d a atom = List.rev (join d a [ atom ])

exception Found

let exists_in j a =
  match Join.iter j a (fun () -> raise_notrace Found) with
  | () -> false
  | exception Found -> true

let exists_match d a atom = exists_in (Join.compile d ~bound:(vars_of a) [ atom ]) a

(* Compiled once, for the atom's variables in [bound]; an assignment that
   binds a different set of them takes the per-call path. *)
let prepared_exists d ~bound atom =
  let vars = Ic.Patom.vars atom in
  let seeded = List.filter (fun x -> List.mem x bound) vars in
  let j = Join.compile d ~bound:seeded [ atom ] in
  fun a ->
    if List.for_all (fun x -> Smap.mem x a = List.mem x seeded) vars then exists_in j a
    else exists_match d a atom
