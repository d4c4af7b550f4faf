"""The numeric rules behind half-line quadrature.

Each rule integrates a function g over [0, 1] toward a target tolerance and
returns (value, estimate, reason), where reason is empty unless the rule
itself flagged the result.  g takes a panel, the list of nodes the rule
needs next, and returns their values in node order: the 21 nodes of one
Gauss-Kronrod interval, or the nodes one tanh-sinh level adds.
radial.integrate_halfline maps a half-line integrand onto [0, 1], picks the
rule and decides pass or stall; this module imports nothing from the
package, and only a process that integrates loads it.

Both rules are plain Python.  Gauss-Kronrod is QUADPACK's QAGS, ported here:
it returns the same floats as scipy.integrate.quad, bit for bit.  Tanh-sinh
is the double-exponential rule of Takahashi and Mori.  Neither loads numpy
or scipy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

Result = Tuple[float, float, str]  # value, error estimate, the rule's flag ("" if none)


def gauss_kronrod(g, target: float) -> Result:
    """One QAGS call: absolute tolerance half the target, relative 1e-13, at
    most 50 subintervals.  A flag (ier != 0) is the reason, which fails the
    check even when the estimate met the target."""
    value, estimate, _, ier, _ = _dqagse(g, 0.0, 1.0, target * 0.5, 1e-13, 50)
    return value, estimate, f"qags: {_QAGS_REASONS[ier]}" if ier else ""


@lru_cache(maxsize=None)
def _ts_nodes(level: int) -> Tuple[tuple, tuple]:
    """The nodes t that a level adds to the tanh-sinh grid tau = j h,
    h = 2^-level, |tau| <= 3.5 (every j at level 0, odd j after), and their
    weights.  At tau = 3.5, 1 - t is 3e-23, below float resolution next to
    t = 1."""
    h = 2.0 ** -level
    ts, ws = [], []
    for j in range(0 if level == 0 else 1, int(3.5 / h) + 1, 1 if level == 0 else 2):
        c = 1.0 / (1.0 + math.exp(math.pi * math.sinh(j * h)))  # t at -jh, 1 - t at jh
        w = math.pi * math.cosh(j * h) * c * (1.0 - c)  # dt/dtau
        ts += (c, 1.0 - c) if j else (c,)
        ws += (w, w) if j else (w,)
    return tuple(ts), tuple(ws)


def tanh_sinh(g, target: float) -> Result:
    """Tanh-sinh (Takahashi and Mori, Publ. RIMS 1974): the trapezoidal rule
    in tau after t = 1 / (1 + exp(-pi sinh tau)), with the step h halved from
    1 up to level 10.  The error estimate is the change from the previous
    level; as for Gauss-Kronrod, half the target ends it."""
    total, value = 0.0, math.inf
    for level in range(11):
        previous = value
        ts, ws = _ts_nodes(level)
        level_sum = 0.0  # a plain left fold: sum() compensates floats from 3.12
        for w, v in zip(ws, g(ts)):
            level_sum += w * v
        total += level_sum
        value = total * 2.0 ** -level
        estimate = abs(value - previous)
        if estimate <= target * 0.5:
            return value, estimate, ""
    return value, estimate, "tanh-sinh: level 10 reached"


# ---------------------------------------------------------------------------
# QUADPACK's QAGS, ported
# ---------------------------------------------------------------------------
#
# dqagse with dqk21, dqpsrt and dqelg from QUADPACK (Piessens, de Doncker-
# Kapenga, Ueberhuber and Kahaner, Springer 1983; public domain), the
# algorithm behind scipy.integrate.quad on a finite interval.  The port keeps
# QUADPACK's operation order exactly, so it returns scipy's floats bit for
# bit; its lists are 0-based, while `last` and the extrapolation table's
# length keep their 1-based meaning as counts.

_EPMACH = 2.220446049250313e-16    # d1mach(4)
_UFLOW = 2.2250738585072014e-308   # d1mach(1)
_OFLOW = 1.7976931348623157e+308   # d1mach(2)

# 21-point Kronrod abscissae _Xj (odd j are the 10-point Gauss nodes) and
# weights _Kj (_K10 at the centre), and the Gauss weights _Gj
_X0, _X1, _X2, _X3, _X4, _X5, _X6, _X7, _X8, _X9 = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7, _K8, _K9, _K10 = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_G0, _G1, _G2, _G3, _G4 = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)

# scipy's message for each flag, up to its first comma or full stop
_QAGS_REASONS = ("",
                 "The maximum number of subdivisions (50) has been achieved",
                 "The occurrence of roundoff error is detected",
                 "Extremely bad integrand behavior occurs at some points of the "
                 "integration interval",
                 "The algorithm does not converge",
                 "The integral is probably divergent")


def _dqk21(f, a: float, b: float) -> Tuple[float, float, float, float]:
    """21-point Gauss-Kronrod rule on [a, b]: (result, abserr, resabs,
    resasc), the last two the integrals of |f| and of |f - mean|.  f gets the
    21 nodes in QUADPACK's order: the centre, the Gauss pairs, the Kronrod
    pairs (each pair left node first).  The sums are QUADPACK's loops
    unrolled, in their order: fc is the value at the centre, lj and rj those
    at the left and right node of abscissa _Xj, and sj = lj + rj."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    d0, d1, d2, d3, d4 = hlgth * _X0, hlgth * _X1, hlgth * _X2, hlgth * _X3, hlgth * _X4
    d5, d6, d7, d8, d9 = hlgth * _X5, hlgth * _X6, hlgth * _X7, hlgth * _X8, hlgth * _X9
    (fc, l1, r1, l3, r3, l5, r5, l7, r7, l9, r9,
     l0, r0, l2, r2, l4, r4, l6, r6, l8, r8) = f([
         centr, centr - d1, centr + d1, centr - d3, centr + d3, centr - d5, centr + d5,
         centr - d7, centr + d7, centr - d9, centr + d9, centr - d0, centr + d0,
         centr - d2, centr + d2, centr - d4, centr + d4, centr - d6, centr + d6,
         centr - d8, centr + d8])
    s0, s1, s2, s3, s4 = l0 + r0, l1 + r1, l2 + r2, l3 + r3, l4 + r4
    s5, s6, s7, s8, s9 = l5 + r5, l6 + r6, l7 + r7, l8 + r8, l9 + r9
    # the loop's sum starts at 0.0, which turns a first term -0.0 into 0.0
    resg = 0.0 + _G0 * s1 + _G1 * s3 + _G2 * s5 + _G3 * s7 + _G4 * s9
    resk = (_K10 * fc + _K1 * s1 + _K3 * s3 + _K5 * s5 + _K7 * s7 + _K9 * s9
            + _K0 * s0 + _K2 * s2 + _K4 * s4 + _K6 * s6 + _K8 * s8)
    resabs = (abs(_K10 * fc) + _K1 * (abs(l1) + abs(r1)) + _K3 * (abs(l3) + abs(r3))
              + _K5 * (abs(l5) + abs(r5)) + _K7 * (abs(l7) + abs(r7))
              + _K9 * (abs(l9) + abs(r9)) + _K0 * (abs(l0) + abs(r0))
              + _K2 * (abs(l2) + abs(r2)) + _K4 * (abs(l4) + abs(r4))
              + _K6 * (abs(l6) + abs(r6)) + _K8 * (abs(l8) + abs(r8)))
    reskh = resk * 0.5
    resasc = (_K10 * abs(fc - reskh) + _K0 * (abs(l0 - reskh) + abs(r0 - reskh))
              + _K1 * (abs(l1 - reskh) + abs(r1 - reskh))
              + _K2 * (abs(l2 - reskh) + abs(r2 - reskh))
              + _K3 * (abs(l3 - reskh) + abs(r3 - reskh))
              + _K4 * (abs(l4 - reskh) + abs(r4 - reskh))
              + _K5 * (abs(l5 - reskh) + abs(r5 - reskh))
              + _K6 * (abs(l6 - reskh) + abs(r6 - reskh))
              + _K7 * (abs(l7 - reskh) + abs(r7 - reskh))
              + _K8 * (abs(l8 - reskh) + abs(r8 - reskh))
              + _K9 * (abs(l9 - reskh) + abs(r9 - reskh)))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
            nrmax: int) -> Tuple[int, float, int]:
    """Keep iord, the intervals by descending error, sorted after the
    interval maxerr was bisected into maxerr and last - 1; return the next
    interval to bisect, its error, and its position nrmax in iord."""
    if last <= 2:
        iord[0], iord[1] = 0, 1
    else:
        # a bisection that raised the error moves maxerr up past nrmax
        errmax = elist[maxerr]
        for _ in range(nrmax):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the jupbn largest errors are kept in order: no more can be
        # bisected within limit
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last - 1]
        jbnd = jupbn - 2
        for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):  # then errmin bottom-up
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last - 1
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last - 1
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn - 1] = last - 1
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n: int, epstab: list, res3la: list, nres: int) -> Tuple[int, float, float, int]:
    """Wynn's epsilon algorithm on the n entries of epstab (the table of
    partial results, updated in place); return the new n, the extrapolated
    value, its error estimate and the count nres of calls."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n - 1]
    if n >= 3:
        limexp = 50
        epstab[n + 1] = epstab[n - 1]
        newelm = (n - 1) // 2
        epstab[n - 1] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            res = epstab[k1 + 1]
            e0 = epstab[k1 - 3]
            e1 = epstab[k1 - 2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 agree to machine accuracy: converged
                result = res
                abserr = err2 + err3
                return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
            e3 = epstab[k1 - 1]
            epstab[k1 - 1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two close elements: drop the rest of the table
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if abs(ss * e1) <= 1e-4:
                n = i + i - 1  # irregular behaviour: drop the rest of the table
                break
            res = e1 + 1.0 / ss
            epstab[k1 - 1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error <= abserr:
                abserr = error
                result = res
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 0 if num % 2 else 1  # shift the table
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n
            for i in range(n):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres - 1] = result
            abserr = _OFLOW
        else:
            abserr = (abs(result - res3la[2]) + abs(result - res3la[1])
                      + abs(result - res3la[0]))
            res3la[0], res3la[1], res3la[2] = res3la[1], res3la[2], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _dqagse(f, a: float, b: float, epsabs: float, epsrel: float,
            limit: int) -> Tuple[float, float, int, int, int]:
    """QAGS: globally adaptive bisection of [a, b] with the 21-point rule and
    Wynn's epsilon extrapolation (epsabs > 0, limit >= 1).

    Returns (result, abserr, neval, ier, last), last the number of
    subintervals; ier 0 is success and 1-5 are scipy's flags (limit reached,
    roundoff, bad integrand behaviour, extrapolation roundoff, divergence).
    """
    ier = ierro = 0
    result, abserr, defabs, resabs = _dqk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier, last

    alist, blist, rlist, elist = [a], [b], [result], [abserr]
    iord = [0] * limit
    rlist2 = [0.0] * 52  # the extrapolation table
    rlist2[0] = result
    res3la = [0.0] * 3
    errmax = abserr
    maxerr = 0
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = nres = ktmin = 0
    numrl2 = 2
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1

    exit_sum = False  # the result is the sum of the subinterval results
    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _dqk21(f, a1, b1)
        area2, error2, _, defab2 = _dqk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if (abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12)
                    and erro12 >= 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last - 1] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            exit_sum = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[1] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the next interval to bisect is a smallest one
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 1
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before
            # extrapolating, bisect the larger intervals among the largest
            # errors (erlarg sums their errors)
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(jupbnd - nrmax):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2 - 1] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare the bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[0]
        errmax = elist[maxerr]
        nrmax = 0
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # keep the extrapolated result, fall back to the sum, or test divergence
    divergence_test = False
    if not exit_sum:
        if abserr == _OFLOW:
            exit_sum = True
        elif ier + ierro == 0:
            divergence_test = True
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                exit_sum = abserr / abs(result) > errsum / abs(area)
                divergence_test = not exit_sum
            else:
                exit_sum = abserr > errsum
                divergence_test = not exit_sum and area != 0.0
    if exit_sum:
        result = 0.0
        for k in range(last):
            result = result + rlist[k]
        abserr = errsum
    elif divergence_test and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # over area = 0, QUADPACK's ratio is infinite (nan when result = 0)
        in_range = 0.01 <= result / area <= 100.0 if area else result == 0.0
        if not in_range or errsum > abs(area):
            ier = 6
    if ier > 2:
        ier -= 1
    return result, abserr, 42 * last - 21, ier, last
