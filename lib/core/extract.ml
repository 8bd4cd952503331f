module Instance = Relational.Instance

let database_of_model names model =
  List.fold_left
    (fun acc (ga : Asp.Ground.gatom) ->
      match Annot.Names.rel_of_annotated names ga.Asp.Ground.gpred with
      | None -> acc
      | Some rel -> (
          match List.rev ga.Asp.Ground.gargs with
          | ann :: rev_args when Annot.annotation_of_const ann = Some Annot.Tss ->
              let values = List.rev_map Annot.decode_value rev_args in
              Instance.add (Relational.Atom.make rel values) acc
          | _ -> acc))
    Instance.empty model

let databases_of_models names models =
  List.sort_uniq Instance.compare (List.map (database_of_model names) models)
