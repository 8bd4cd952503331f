type t = Value.t array

let make vs = Array.of_list vs
let of_array a = a
let to_list = Array.to_list
let arity = Array.length

(* Top-level recursions, not local closures: a local [go] captured [a]
   and [b] and allocated per call, and every set of tuples sorts through
   these. *)
let rec equal_from (a : t) (b : t) i =
  i >= Array.length a || (Value.equal a.(i) b.(i) && equal_from a b (i + 1))

let equal a b = Array.length a = Array.length b && equal_from a b 0

let rec compare_from (a : t) (b : t) i =
  if i >= Array.length a then 0
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let has_null t = Array.exists Value.is_null t
let all_non_null t = not (has_null t)

let project positions t =
  let n = Array.length t in
  let pick i =
    if i < 1 || i > n then
      invalid_arg
        (Printf.sprintf "Tuple.project: position %d out of range 1..%d" i n)
    else t.(i - 1)
  in
  Array.of_list (List.map pick positions)

let pp ppf t =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") Value.pp) t

module Set = struct
  type elt = t

  (* sorted by [compare], pairwise distinct, never written after it is
     made *)
  type nonrec t = elt array

  let elt_compare = compare
  let elt_equal = equal
  let empty = [||]
  let singleton x = [| x |]
  let is_empty s = Array.length s = 0
  let cardinal = Array.length

  (* Keep [a.(i)] at [k] when it is greater than the last kept [a.(k - 1)],
     drop it when equal; the count kept, or [-1] as soon as some [a.(i)]
     is smaller.  Positions are written in increasing order, each after it
     was read, so a pass stopped at [-1] leaves every distinct value of
     [a] in it. *)
  let rec compact a k i =
    if i >= Array.length a then k
    else
      let c = elt_compare a.(k - 1) a.(i) in
      if c < 0 then begin
        if k < i then a.(k) <- a.(i);
        compact a (k + 1) (i + 1)
      end
      else if c = 0 then compact a k (i + 1)
      else -1

  let of_array a =
    let n = Array.length a in
    if n <= 1 then a
    else
      let k =
        match compact a 1 1 with
        | -1 ->
            Array.stable_sort elt_compare a;
            compact a 1 1
        | k -> k
      in
      if k = n then a else Array.sub a 0 k

  let of_list l = of_array (Array.of_list l)

  (* The first index [i >= lo] with [x <= s.(i)], or the length of [s],
     all of [s] below [lo] being smaller than [x]: probes at about twice
     the distance from [lo] each time, then a binary search within the
     last step.  Ascending [x]s, each sought from the previous answer,
     cost the logarithm of the distance each one moves, so a walk of [m]
     elements over [n] costs a merge's compares when [m] is near [n] and
     [m log (n / m)] when [m] is small. *)
  let rec narrow s x lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if elt_compare s.(mid) x < 0 then narrow s x (mid + 1) hi else narrow s x lo mid

  let rec gallop s x lo step =
    let probe = lo + step in
    if probe < Array.length s && elt_compare s.(probe) x < 0 then
      gallop s x (probe + 1) ((2 * step) + 2)
    else narrow s x lo (Int.min probe (Array.length s))

  let mem x s =
    let i = narrow s x 0 (Array.length s) in
    i < Array.length s && elt_equal s.(i) x

  (* For each element of [small], in order: its index in [big], or
     [-1 - i] when [big] lacks it and [i] is the index it would take. *)
  let locate big small =
    let lo = ref 0 in
    Array.map
      (fun x ->
        let i = gallop big x !lo 0 in
        lo := i;
        if i < Array.length big && elt_equal big.(i) x then i else -1 - i)
      small

  let count p loc = Array.fold_left (fun n l -> if p l then n + 1 else n) 0 loc

  (* [big] with the [k] elements of [small] that [locate] found missing
     inserted at their places. *)
  let splice big small loc k =
    let r = Array.make (Array.length big + k) [||] in
    let src = ref 0 and dst = ref 0 in
    Array.iteri
      (fun j l ->
        if l < 0 then begin
          let i = -1 - l in
          Array.blit big !src r !dst (i - !src);
          dst := !dst + (i - !src);
          src := i;
          r.(!dst) <- small.(j);
          incr dst
        end)
      loc;
    Array.blit big !src r !dst (Array.length big - !src);
    r

  (* [s] without the [k] elements at the ascending indices [loc] holds
     (negative entries are skipped). *)
  let cut s loc k =
    let r = Array.make (Array.length s - k) [||] in
    let src = ref 0 and dst = ref 0 in
    Array.iter
      (fun i ->
        if i >= 0 then begin
          Array.blit s !src r !dst (i - !src);
          dst := !dst + (i - !src);
          src := i + 1
        end)
      loc;
    Array.blit s !src r !dst (Array.length s - !src);
    r

  (* The [k] elements [s.(j)] with [keep loc.(j)], in order. *)
  let select s loc keep k =
    let r = Array.make k [||] and dst = ref 0 in
    Array.iteri
      (fun j l ->
        if keep l then begin
          r.(!dst) <- s.(j);
          incr dst
        end)
      loc;
    r

  let found l = l >= 0
  let missing l = l < 0

  let sides a b = if Array.length a >= Array.length b then (a, b) else (b, a)

  let union a b =
    let big, small = sides a b in
    if a == b || is_empty small then big
    else
      let loc = locate big small in
      let k = count missing loc in
      if k = 0 then big else splice big small loc k

  let inter a b =
    let big, small = sides a b in
    if a == b || is_empty small then small
    else
      let loc = locate big small in
      let k = count found loc in
      if k = Array.length small then small else select small loc found k

  let diff a b =
    if a == b then empty
    else if is_empty a || is_empty b then a
    else if Array.length b <= Array.length a then
      let loc = locate a b in
      let k = count found loc in
      if k = 0 then a else cut a loc k
    else
      let loc = locate b a in
      let k = count missing loc in
      if k = Array.length a then a else select a loc missing k

  let subset a b =
    a == b
    || Array.length a <= Array.length b
       && Array.for_all found (locate b a)

  let rec equal_from a b i =
    i >= Array.length a || (elt_equal a.(i) b.(i) && equal_from a b (i + 1))

  let equal a b = a == b || (Array.length a = Array.length b && equal_from a b 0)

  let exists = Array.exists

  let rec fold_from f s i acc =
    if i >= Array.length s then acc else fold_from f s (i + 1) (f s.(i) acc)

  let fold f s acc = fold_from f s 0 acc
  let elements = Array.to_list
end
