//! Implementations of the Table 3 and Table 4 reproductions.

use conquer_datagen::cora::{schapire_cluster, CITATION_ATTRIBUTES};
use conquer_prob::{
    assign_probabilities, distance::information_loss, CategoricalMatrix, Clustering,
    DistanceMeasure, EditDistance, InfoLossDistance,
};
use conquer_storage::{DataType, Schema, Table};

use crate::harness::Report;

/// The paper's Figure-6 dirty customer relation.
pub fn figure6_relation() -> (Table, Clustering) {
    let schema = Schema::from_pairs([
        ("name", DataType::Text),
        ("mktsegmt", DataType::Text),
        ("nation", DataType::Text),
        ("address", DataType::Text),
    ])
    .expect("static schema");
    let mut t = Table::new("customer", schema);
    for (a, b, c, d) in [
        ("Mary", "building", "USA", "Jones Ave"),
        ("Mary", "banking", "USA", "Jones Ave"),
        ("Marion", "banking", "USA", "Jones ave"),
        ("John", "building", "America", "Arrow"),
        ("John S.", "building", "USA", "Arrow"),
        ("John", "banking", "Canada", "Baldwin"),
    ] {
        t.insert(vec![a.into(), b.into(), c.into(), d.into()])
            .expect("row");
    }
    let clustering =
        Clustering::new(vec![vec![0, 1, 2], vec![3, 4], vec![5]], 6).expect("partition");
    (t, clustering)
}

/// Table 3: distance to the cluster representative, similarity, and
/// probability for every tuple of the Figure-6 relation — plus the same
/// computation under the alternative edit-distance measure (the paper's
/// modularity claim).
pub fn table3() -> Report {
    let (t, clustering) = figure6_relation();
    let attrs = ["name", "mktsegmt", "nation", "address"];
    let matrix = CategoricalMatrix::from_table(&t, &attrs).expect("attributes exist");

    let info = assign_probabilities(&matrix, &clustering, &InfoLossDistance);
    let edit = assign_probabilities(&matrix, &clustering, &EditDistance);

    let mut report = Report::new(
        "Table 3: probability calculation in customer (Figure 6)",
        &[
            "tuple",
            "rep",
            "d(t, rep)",
            "s_t",
            "p(t) info-loss",
            "p(t) edit-distance",
        ],
    );
    report.note("paper: t2 most probable in c1; t4 = t5 = 0.5; t6 = 1.0");

    for (ci, cluster) in clustering.clusters().iter().enumerate() {
        let rep = matrix.cluster_dcf(cluster);
        let s: f64 = cluster
            .iter()
            .map(|&i| information_loss(&matrix.tuple_dcf(i), &rep, matrix.n() as f64))
            .sum();
        for &i in cluster {
            let d = information_loss(&matrix.tuple_dcf(i), &rep, matrix.n() as f64);
            let sim = if cluster.len() == 1 || s <= f64::EPSILON {
                1.0
            } else {
                1.0 - d / s
            };
            report.push_row(vec![
                format!("t{}", i + 1),
                format!("rep{}", ci + 1),
                format!("{d:.4}"),
                format!("{sim:.4}"),
                format!("{:.4}", info[i]),
                format!("{:.4}", edit[i]),
            ]);
        }
    }
    report
}

/// Table 4: the Cora-style qualitative evaluation — most frequent values of
/// the 56-tuple cluster, its two most likely tuples, and its two least
/// likely tuples (which must be the mis-clustered and odd-format records).
pub fn table4() -> Report {
    let (t, misclustered, odd) = schapire_cluster(1).expect("generator");
    let matrix = CategoricalMatrix::from_table(&t, &CITATION_ATTRIBUTES).expect("schema");
    let clustering = Clustering::from_id_column(&t, "id").expect("id column");
    let probs = assign_probabilities(&matrix, &clustering, &InfoLossDistance);

    let mut report = Report::new(
        "Table 4: example from the (synthetic) Cora data set",
        &[
            "rank", "p(t)", "author", "title", "venue", "volume", "year", "pages", "note",
        ],
    );
    report.note(format!(
        "{}-tuple cluster; anomalies at rows {misclustered} and {odd}",
        t.len()
    ));

    // Header block: most frequent values.
    let all: Vec<usize> = (0..t.len()).collect();
    let rep = InfoLossDistance.representative(&matrix, &all);
    let modal = rep.modal_values(|v| matrix.value_name(v).0, matrix.m());
    let mut row = vec!["modal".to_string(), String::new()];
    row.extend(modal.iter().map(|v| {
        v.map(|v| matrix.value_name(v).1.to_string())
            .unwrap_or_default()
    }));
    row.push("most frequent values".into());
    report.push_row(row);

    let mut ranked: Vec<usize> = (0..t.len()).collect();
    ranked.sort_by(|&a, &b| probs[b].partial_cmp(&probs[a]).expect("finite"));
    let show = |rank: &str, i: usize, report: &mut Report| {
        let r = &t.shared_rows()[i];
        let note = if i == misclustered {
            "different publication (mis-clustered)"
        } else if i == odd {
            "same publication, odd format"
        } else {
            ""
        };
        report.push_row(vec![
            rank.to_string(),
            format!("{:.4}", probs[i]),
            r[1].to_string(),
            r[2].to_string(),
            r[3].to_string(),
            r[4].to_string(),
            r[5].to_string(),
            r[6].to_string(),
            note.to_string(),
        ]);
    };
    show("top-1", ranked[0], &mut report);
    show("top-2", ranked[1], &mut report);
    show("bot-2", ranked[t.len() - 2], &mut report);
    show("bot-1", ranked[t.len() - 1], &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_report_shape() {
        let r = table3();
        assert_eq!(r.rows.len(), 6);
        // similarity/probability invariants asserted in conquer-prob; here
        // check the rendering is complete.
        for row in &r.rows {
            assert_eq!(row.len(), 6);
        }
    }

    #[test]
    fn table4_report_flags_anomalies() {
        let r = table4();
        assert_eq!(r.rows.len(), 5); // modal + top2 + bottom2
        let notes: Vec<&str> = r.rows.iter().map(|r| r[8].as_str()).collect();
        assert!(notes.contains(&"different publication (mis-clustered)"));
        assert!(notes.contains(&"same publication, odd format"));
    }
}
