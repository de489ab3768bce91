"""Shared benchmark datasets with known-good expected values.

PHARM_CHEM holds the 28 universities active in the pharmaceutical chemistry
subfield (CHIM/08): output indicator, staff-years by rank (full, associate,
assistant), and the reference efficiency triple (te, ae, ce) each row is
expected to reproduce within table tolerance.

BIOLOGY_AREA and SMALL_UNIVERSITY are single-institution SDS portfolios:
(sds_id, staff cost in k EUR, te, ae, ce) plus the stated cost-weighted
average row. Note: SMALL_UNIVERSITY's stated total cost equals the sum of
its first 22 rows only; the source table's average row is internally
inconsistent (see the aggregation tests).
"""

from bibdea import DmuInput, EfficiencyScores, SdsDataset

PHARM_CHEM_SDS = "CHIM/08"

# (dmu_id, ss, fp_years, ap_years, rf_years, te, ae, ce)
PHARM_CHEM = [
    ("Ferrara", 64.026, 25, 18, 20, 1.000, 1.000, 1.000),
    ("Piemonte Orientale Avogadro", 24.970, 5, 10, 15, 1.000, 0.948, 0.948),
    ("Bologna", 151.659, 47, 65, 53, 1.000, 0.945, 0.945),
    ("Siena", 57.508, 25, 24, 19, 0.918, 0.907, 0.833),
    ("Pavia", 40.293, 10, 29, 17, 1.000, 0.768, 0.768),
    ("Perugia", 42.115, 17, 29, 19, 0.772, 0.864, 0.667),
    ("Milano", 77.785, 50, 20, 46, 1.000, 0.666, 0.666),
    ('Roma "La Sapienza"', 80.585, 22, 69, 41, 0.882, 0.744, 0.656),
    ("Messina", 41.627, 24, 30, 8, 1.000, 0.631, 0.631),
    ("Padova", 62.036, 40, 45, 22, 0.729, 0.766, 0.558),
    ('Urbino "Carlo Bo"', 22.055, 5, 21, 23, 0.883, 0.591, 0.522),
    ('Napoli "Federico II"', 53.332, 29, 43, 53, 0.484, 0.955, 0.462),
    ("Parma", 29.019, 20, 31, 24, 0.437, 0.918, 0.401),
    ("Trieste", 21.015, 13, 27, 17, 0.465, 0.829, 0.385),
    ("Modena e Reggio Emilia", 23.199, 9, 35, 23, 0.553, 0.689, 0.381),
    ("Firenze", 46.893, 34, 50, 45, 0.404, 0.941, 0.380),
    ("Cagliari", 16.012, 10, 15, 22, 0.396, 0.951, 0.377),
    ("Pisa", 38.584, 32, 39, 35, 0.389, 0.957, 0.373),
    ("Salerno", 11.998, 10, 15, 17, 0.322, 0.951, 0.307),
    ("Torino", 27.728, 20, 40, 39, 0.341, 0.893, 0.304),
    ("Camerino", 23.703, 40, 27, 11, 0.502, 0.546, 0.274),
    ("Bari", 43.205, 42, 67, 62, 0.288, 0.928, 0.267),
    ("Sassari", 18.698, 19, 25, 43, 0.266, 0.897, 0.239),
    ("Calabria", 4.180, 10, 5, 4, 0.303, 0.663, 0.201),
    ("Catania", 16.047, 22, 50, 25, 0.225, 0.759, 0.171),
    ("Genova", 16.147, 30, 42, 22, 0.217, 0.786, 0.170),
    ("Palermo", 19.871, 40, 40, 48, 0.164, 0.979, 0.160),
    ("Gabriele D'Annunzio", 6.323, 13, 5, 27, 0.325, 0.482, 0.157),
]

# (sds_id, staff cost k EUR, te, ae, ce); 19 SDSs of one institution's
# biology area. Stated cost-weighted average: (0.239, 0.635, 0.160),
# total cost 114918.70.
BIOLOGY_AREA = [
    ("BIO/01", 4473.00, 0.592, 0.592, 0.351),
    ("BIO/02", 3773.50, 0.148, 0.486, 0.072),
    ("BIO/03", 2435.75, 0.946, 0.376, 0.355),
    ("BIO/04", 3880.75, 0.079, 0.681, 0.054),
    ("BIO/05", 5548.10, 0.064, 0.705, 0.045),
    ("BIO/06", 13995.50, 0.157, 0.805, 0.126),
    ("BIO/07", 2136.70, 0.258, 0.339, 0.087),
    ("BIO/08", 558.50, 0.949, 0.680, 0.645),
    ("BIO/09", 11579.55, 0.105, 0.464, 0.049),
    ("BIO/10", 24884.55, 0.092, 0.544, 0.050),
    ("BIO/11", 7202.65, 0.146, 0.706, 0.103),
    ("BIO/12", 4846.35, 0.188, 0.506, 0.095),
    ("BIO/13", 5394.30, 0.245, 0.696, 0.170),
    ("BIO/14", 8859.70, 0.676, 0.77, 0.521),
    ("BIO/15", 2697.15, 1.000, 1.000, 1.000),
    ("BIO/16", 2701.95, 0.130, 0.959, 0.125),
    ("BIO/17", 1351.95, 0.013, 0.526, 0.007),
    ("BIO/18", 6575.35, 0.150, 0.680, 0.102),
    ("BIO/19", 2023.40, 0.565, 0.547, 0.309),
]
BIOLOGY_AREA_AVERAGE = (0.239, 0.635, 0.160)

# 23 SDSs of a small institution. Stated cost-weighted average:
# (0.352, 0.684, 0.228); stated total cost 45846.100, which omits the
# final row (the 23 costs sum to 47418.25).
SMALL_UNIVERSITY = [
    ("AGR/02", 398.500, 1.000, 1.000, 1.000),
    ("BIO/03", 957.000, 0.000, 0.000, 0.000),
    ("BIO/05", 111.700, 0.000, 0.000, 0.000),
    ("BIO/07", 3826.050, 0.251, 0.845, 0.212),
    ("BIO/10", 1355.500, 0.062, 0.480, 0.030),
    ("BIO/19", 1117.000, 0.867, 0.167, 0.145),
    ("CHIM/01", 5281.000, 0.323, 0.832, 0.268),
    ("CHIM/02", 4129.200, 0.084, 0.426, 0.036),
    ("CHIM/03", 7065.550, 0.168, 0.639, 0.107),
    ("CHIM/06", 3722.700, 0.385, 0.884, 0.341),
    ("CHIM/12", 2871.000, 0.236, 0.603, 0.142),
    ("FIS/01", 1844.250, 0.701, 0.762, 0.534),
    ("FIS/03", 681.750, 0.117, 1.000, 0.117),
    ("GEO/02", 283.250, 1.000, 0.416, 0.416),
    ("GEO/05", 558.500, 0.466, 1.000, 0.466),
    ("GEO/07", 398.500, 0.000, 0.000, 0.000),
    ("GEO/08", 398.500, 0.358, 0.355, 0.127),
    ("INF/01", 7453.400, 0.461, 0.822, 0.379),
    ("ING-IND/25", 1195.500, 1.000, 0.418, 0.418),
    ("ING-INF/05", 558.500, 0.318, 0.575, 0.183),
    ("MAT/02", 1240.250, 0.180, 0.588, 0.106),
    ("MAT/08", 398.500, 0.541, 0.130, 0.070),
    ("MAT/09", 1572.150, 0.672, 0.346, 0.232),
]
SMALL_UNIVERSITY_AVERAGE = (0.352, 0.684, 0.228)

# Known reconstructions of staff costs from integer staff-year triples,
# (sds_id, printed cost, (fp, ap, rf)).
COST_RECONSTRUCTIONS = [
    ("AGR/02", 398.500, (0, 5, 0)),
    ("BIO/05", 111.700, (1, 0, 0)),
    ("GEO/02", 283.250, (0, 0, 5)),
]

# Output-per-staff-year spot values: (ss, total staff-years, expected ratio).
PRODUCTIVITY_SPOTS = [
    (24.970, 30, 0.832),
    (151.659, 165, 0.919),
    (57.508, 68, 0.846),
]


def pharm_chem_dataset() -> SdsDataset:
    members = tuple(
        (DmuInput(dmu_id=name, sds_id=PHARM_CHEM_SDS, fp_years=fp, ap_years=ap, rf_years=rf), ss)
        for name, ss, fp, ap, rf, _te, _ae, _ce in PHARM_CHEM
    )
    return SdsDataset(sds_id=PHARM_CHEM_SDS, members=members)


def pharm_chem_printed_scores() -> dict[str, EfficiencyScores]:
    """The printed te and ae of every PHARM_CHEM unit, with ce = te * ae."""
    return {
        name: EfficiencyScores(te=te, ae=ae, ce=te * ae)
        for name, _ss, _fp, _ap, _rf, te, ae, _ce in PHARM_CHEM
    }
