"""Frozen high-precision reference values.

Generated offline with mpmath at 50 decimal digits (120 for the two extreme
phonon entries, where double-digit cancellation eats precision). Each table
notes the defining expression; tests must not recompute these through the
code paths they validate.
"""

# e^{x^2} erfc(x) at 20 log-spaced x in [1e-3, 1e9]
ERFCX_TABLE = [
    (0.0010000000000000000, 0.99887262008115141),
    (0.0042813323987193939, 0.99518730465475463),
    (0.018329807108324359, 0.97964843244099008),
    (0.078475997035146127, 0.91726234869353018),
    (0.33598182862837821, 0.71052544260761578),
    (1.4384498882876628, 0.33195279254426534),
    (6.1584821106602637, 0.090448928362079087),
    (26.366508987303583, 0.021382606131298591),
    (112.88378916846891, 0.0049977720684158351),
    (483.29302385717532, 0.0011673836533189273),
    (2069.1380811147897, 0.00027266885801759774),
    (8858.6679041008263, 6.3687857594471980e-5),
    (37926.901907322497, 1.4875709719984239e-5),
    (162377.67391887218, 3.4745514572338318e-6),
    (695192.79617756060, 8.1155844342649343e-7),
    (2976351.4416313182, 1.8955744797344763e-7),
    (12742749.857031338, 4.4275340085753914e-8),
    (54555947.811685191, 1.0341486238956221e-8),
    (233572146.90901223, 2.4154831430630113e-9),
    (1000000000.0000000, 5.6418958354775629e-10),
]

# Bessel J1(x)
J1_TABLE = [
    (1.0000000000000000e-6, 4.9999999999993750e-7),
    (0.00010000000000000000, 4.9999999937500000e-5),
    (0.010000000000000000, 0.0049999375002604161),
    (0.10000000000000000, 0.049937526036241998),
    (0.50000000000000000, 0.24226845767487389),
    (1.0000000000000000, 0.44005058574493352),
    (1.8000000000000000, 0.58151695173116518),
    (2.5000000000000000, 0.49709410246427404),
    (3.8300000000000000, 0.00068724822059706559),
    (5.0000000000000000, -0.32757913759146522),
    (7.0100000000000000, -0.0016773069989360991),
    (10.000000000000000, 0.043472746168861437),
    (14.400000000000000, 0.18503166161457769),
    (21.300000000000000, 0.17187297134188765),
    (35.700000000000000, -0.047995546890737189),
    (50.000000000000000, -0.097511828125175138),
    (77.200000000000000, 0.077440612755318687),
    (123.00000000000000, 0.021567351498906609),
    (251.00000000000000, -0.045138776916367447),
    (500.00000000000000, 0.010472613470372293),
]

# eta_sphere(R, rc) / eta_pointmass(equal mass), as a function of R/rc:
# 6 (rc/R)^6 [2 (e^-X - 1) + X (1 + e^-X)], X = (R/rc)^2, validated against
# direct quadrature of the defining integral.
SPHERE_RATIO_TABLE = [
    (0.010000000000000000, 0.99995000149996667),
    (0.30000000000000000, 0.95619108532436463),
    (1.0000000000000000, 0.62182994108596179),
    (3.0000000000000000, 0.057624341628353527),
    (30.000000000000000, 7.3909465020576132e-6),
    (300.00000000000000, 7.4072427983539095e-10),
    (10000.000000000000, 5.9999998800000000e-16),
]

# eta_cube(L, rc) / eta_pointmass(equal mass) for a cube measured along a
# body axis, as a function of L/rc (1-D erf reductions of the defining
# integral, evaluated in mpmath; moderate entries verified against direct
# oscillatory quadrature).
CUBE_RATIO_TABLE = [
    (0.010000000000000000, 0.99997916693402516),
    (1.0000000000000000, 0.81598466715745125),
    (10.000000000000000, 0.0039561777811094600),
    (460.00000000000000, 1.1171339850128068e-9),
    (460000.00000000000, 1.1226293648773822e-21),
]

# eta_cylinder(R, L, rc) / eta_pointmass(equal mass), measurement along the
# cylinder axis: (R, L, rc, ratio)
CYLINDER_RATIO_TABLE = [
    (0.3, 3.0, 0.05, 1.0040208739694016e-4),
    (0.3, 3.0, 1e-7, 1.9753078990096019e-27),
    (0.17, 0.2, 1e-7, 1.3840821262941851e-24),
    (0.3, 3.0, 1e-3, 1.9678790055460354e-11),
    (0.17, 0.2, 1e-3, 1.3748962393168867e-8),
    (0.3, 3.0, 0.3, 0.031767028218115339),
]

# lambda_eff / lambda for linear dispersion at x = rc Wc / v_s:
# (4 x^2/3)[1/2 - x^2 + sqrt(pi) x^3 e^{x^2} erfc(x)]
PHONON_RATIO_TABLE = [
    (0.0010000000000000000, 6.6666533569394083e-7),
    (0.030000000000000000, 0.00059897553404596874),
    (1.0000000000000000, 0.34382954152174947),
    (5.0000000000000000, 0.91192276282326203),
    (20.000000000000000, 0.99380408059015522),
    (100.00000000000000, 0.99975008746064664),
    (1000.0000000000000, 0.99999750000874996),
    (1000000.0000000000, 0.9999999999975),
    (1000000000.0000000, 1.0),
]

# cold-atom bracket / tau^3 at s = t/tau:
# b(s) = s^3/2 - s^2/2 + 1 - (1+s) e^{-s}
COLD_BRACKET_TABLE = [
    (1.0000000000000000e-6, 1.6666679166663333e-19),
    (0.0010000000000000000, 1.6679163334027659e-10),
    (0.50000000000000000, 0.027704010431049865),
    (1.0000000000000000, 0.26424111765711536),
    (10.000000000000000, 450.99950060077261),
]

# two identical unit point masses at +-a x^ measured along x^:
# eta_reduced * m0^2 rc^2 = 1 + (1 - 2 a^2/rc^2) e^{-a^2/rc^2}
# two spheres R=0.2 at +-0.7 x^, rc=0.7, unit masses, m0 = 1:
TWO_SPHERE_ETA_M0_1 = 1.2505721628587744

EXP_MINUS_1 = 0.36787944117144233
SPHERE_FF_AT_KR_PI = 0.092393840292159017       # (3/pi^2)^2
ONE_MINUS_2_OVER_E = 0.26424111765711536
CANTILEVER_SPECTRUM = 0.036526633559752063      # 1/(1+(2 pi 8174.01/1e4)^2)
CANTILEVER_RATIO = 27.377283437964542           # 1+(2 pi 8174.01/1e4)^2
CANTILEVER_SPHERE_MASS = 1.1589708625019749e-10  # (4/3) pi (15.5e-6)^3 7430
LISA_CUBE_DENSITY = 19807.676502013643          # 1.928/0.046^3
HEATING_WHITE_LMAX = 3.3541461668984791e-11     # 1e-11 * 4 rc^2 m0^2/(3 hbar^2), rc=1e-7


# a sphere touching a cylinder: its cross term has no route, so every rc fails
SPHERE_CYLINDER_PAIR = """\
id = bad-pair
kind = optomechanical
[geometry]
shape = composite
measurement_axis = 1 0 0
[[geometry.part]]
shape = sphere
radius = 0.1
density = 1000.0
offset = 0.15 0 0
[[geometry.part]]
shape = cylinder
radius = 0.05
length = 0.2
density = 1000.0
offset = 0 0 0
[ceiling]
kind = force_psd
value = 1e-30
probe_hz = 10.0
"""


# a full-sine lattice: lambda_eff by quadrature, with dispersion knees for
# rc < 40 a / pi = 3.2e-9 m and "oscillations too fine" for rc/a < 2e-3 / pi
LATTICE_HEATING = """\
id = lattice-heating
kind = bulk_heating
provenance = "test input: copper-like lattice, a = 2.5e-10 m, v_s = 3000 m/s"

[phonon]
v_s = 3000.0
dispersion = full_sine
force_constant = 15.192
atom_mass = 1.055e-25
plane_spacing = 2.5e-10

[ceiling]
kind = heating_power
value = 1e-11
"""

# lambda_max (s^-1) of LATTICE_HEATING under exponential noise at
# Wc = 1.637561e4 rad/s, at four rc given as float.hex: 30-digit mpmath
# quadrature of lam_eff/lam = (8/(3 sqrt(pi))) Int_0^inf y^4 e^{-y^2} dy /
# (1 + b sin^2(y a/(2 rc))), b = (w_max/Wc)^2, w_max = 2 sqrt(C/m_A), split
# at y = 10^k/(sqrt(b) a/(2 rc)), then the ceiling times
# 4 rc^2 m0^2/(3 hbar^2) over it (45 digits give the same 15)
FULL_SINE_LMAX_WC = 1.637561e4
FULL_SINE_LMAX = [
    ("0x1.e505a550f44b3p-14", 168.857799433285),
    ("0x1.fbf56b482097bp-14", 168.857812438229),
    ("0x1.23bdf7d132b3fp-13", 168.857859498844),
    ("0x1.fbdd7b3d4bec1p-11", 168.867019499763),
]
