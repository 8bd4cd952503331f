let mutex = Mutex.create ()

(* id -> value, published via [Atomic] so decoding never takes the lock:
   a slot is written before [count] is bumped, and both the array and the
   counter are sequentially-consistent atomics, so any reader that observes
   [i < count] also observes the write to slot [i]. *)
let values : Value.t array Atomic.t = Atomic.make (Array.make 1024 Value.Null)
let count = Atomic.make 1
let null_id = 0

let size () = Atomic.get count
let is_null i = i = null_id

let value i =
  if i < 0 || i >= Atomic.get count then invalid_arg "Symtab.value: unknown code";
  (Atomic.get values).(i)

(* value -> id, read and written under [mutex]: open addressing with
   linear probing over an int array of [key; id + 1] pairs (an id cell of
   0 is an empty slot), kept at most half full.  An int is its own key, in
   the table of ints; a string is keyed by its hash, and a hit is
   confirmed against the value of the id.  The index holds no pointer, so
   filling it costs the garbage collector nothing, and an int is found
   without reading a value.  Null is always [null_id]. *)
type index = { mutable slots : int array; mutable used : int }

let ints = { slots = Array.make 8192 0; used = 0 }
let strs = { slots = Array.make 8192 0; used = 0 }

let start key slots = ((key * 0x2545F4914F6CDD1D) lsr 20) land ((Array.length slots / 2) - 1)
let step i slots = (i + 1) land ((Array.length slots / 2) - 1)

let rec int_slot slots key i =
  if slots.((2 * i) + 1) = 0 || slots.(2 * i) = key then i
  else int_slot slots key (step i slots)

let rec str_slot slots h s vals i =
  let id = slots.((2 * i) + 1) in
  if id = 0 then i
  else if slots.(2 * i) = h && (match vals.(id - 1) with Value.Str t -> String.equal s t | _ -> false)
  then i
  else str_slot slots h s vals (step i slots)

(* Twice the slots; the pairs move by their keys, no value is read. *)
let grow idx =
  let old = idx.slots in
  let slots = Array.make (2 * Array.length old) 0 in
  for i = 0 to (Array.length old / 2) - 1 do
    let id = old.((2 * i) + 1) in
    if id <> 0 then begin
      let key = old.(2 * i) in
      let rec free j = if slots.((2 * j) + 1) = 0 then j else free (step j slots) in
      let j = free (start key slots) in
      slots.(2 * j) <- key;
      slots.((2 * j) + 1) <- id
    end
  done;
  idx.slots <- slots

(* The id of a value not yet interned, stored at slot [i] of [idx]. *)
let add idx key i v =
  let n = Atomic.get count in
  let arr = Atomic.get values in
  let arr =
    if n >= Array.length arr then begin
      let bigger = Array.make (2 * Array.length arr) Value.Null in
      Array.blit arr 0 bigger 0 n;
      bigger
    end
    else arr
  in
  arr.(n) <- v;
  Atomic.set values arr;
  Atomic.incr count;
  idx.slots.(2 * i) <- key;
  idx.slots.((2 * i) + 1) <- n + 1;
  idx.used <- idx.used + 1;
  if 4 * idx.used > Array.length idx.slots then grow idx;
  n

(* The id of the value; one never interned gets a fresh id if [fresh],
   and is [-1] otherwise. *)
let lookup ~fresh v =
  match v with
  | Value.Null -> null_id
  | Value.Int k ->
      let i = int_slot ints.slots k (start k ints.slots) in
      let id = ints.slots.((2 * i) + 1) in
      if id <> 0 then id - 1 else if fresh then add ints k i v else -1
  | Value.Str s ->
      let h = Hashtbl.hash s in
      let i = str_slot strs.slots h s (Atomic.get values) (start h strs.slots) in
      let id = strs.slots.((2 * i) + 1) in
      if id <> 0 then id - 1 else if fresh then add strs h i v else -1

(* The lock is taken and released without [Fun.protect]'s closure: joins
   look up their seeds' codes per seed, and loads intern every value.
   Only running out of memory can raise under it. *)
let find v =
  Mutex.lock mutex;
  let id = lookup ~fresh:false v in
  Mutex.unlock mutex;
  if id < 0 then None else Some id

let intern v =
  Mutex.lock mutex;
  match lookup ~fresh:true v with
  | c ->
      Mutex.unlock mutex;
      c
  | exception e ->
      Mutex.unlock mutex;
      raise e

let intern_row vs n dst off =
  Mutex.lock mutex;
  match
    for j = 0 to n - 1 do
      dst.(off + j) <- lookup ~fresh:true vs.(j)
    done
  with
  | () -> Mutex.unlock mutex
  | exception e ->
      Mutex.unlock mutex;
      raise e

let intern_all vs =
  let codes = Array.make (Array.length vs) null_id in
  intern_row vs (Array.length vs) codes 0;
  codes
