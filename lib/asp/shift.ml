let shift_rule (r : Syntax.rule) =
  match r.Syntax.head with
  | [] | [ _ ] -> [ r ]
  | head ->
      List.map
        (fun h ->
          let others = List.filter (fun h' -> not (Syntax.equal_atom h h')) head in
          {
            r with
            Syntax.head = [ h ];
            body_neg = r.Syntax.body_neg @ others;
          })
        head

let program p = List.concat_map shift_rule p

let ground g =
  let g' = Ground.create () in
  (* preserve atom ids by re-interning in order *)
  for i = 0 to Ground.atom_count g - 1 do
    ignore (Ground.intern g' (Ground.atom_of g i))
  done;
  Array.iter
    (fun (r : Ground.grule) ->
      match Array.length r.Ground.ghead with
      | 0 | 1 -> Ground.add_rule g' r
      | _ ->
          (* one disjunct per shifted rule, the others negated; the head
             and negative-body lists are converted once per rule, not once
             per disjunct *)
          let head = Array.to_list r.Ground.ghead in
          let gneg = Array.to_list r.Ground.gneg in
          List.iter
            (fun h ->
              let others = List.filter (fun h' -> h' <> h) head in
              let neg =
                Array.of_list (List.sort_uniq Int.compare (others @ gneg))
              in
              Ground.add_rule g'
                { Ground.ghead = [| h |]; gpos = r.Ground.gpos; gneg = neg })
            head)
    (Ground.rules g);
  (* shifting is always followed by solving: build the occurrence index of
     the result eagerly so it is not charged to the first propagation *)
  ignore (Ground.index g');
  g'

let if_hcf g = if Hcf.is_hcf g then (ground g, true) else (g, false)
