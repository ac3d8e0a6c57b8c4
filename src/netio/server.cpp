#include "netio/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <system_error>
#include <unordered_map>

#include "dnscore/codec.hpp"
#include "netio/fd.hpp"

namespace recwild::netio {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error{errno, std::generic_category(), what};
}

sockaddr_in make_addr(const std::string& address, std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &sa.sin_addr) != 1) {
    throw std::system_error{EINVAL, std::generic_category(),
                            "bad bind address: " + address};
  }
  return sa;
}

UniqueFd make_socket(int type) {
  UniqueFd fd{::socket(AF_INET, type | SOCK_NONBLOCK | SOCK_CLOEXEC, 0)};
  if (!fd) throw_errno("socket");
  const int one = 1;
  // SO_REUSEPORT is the sharding mechanism: every worker binds the same
  // (addr, port) and the kernel distributes flows across them.
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
    throw_errno("setsockopt(SO_REUSEPORT)");
  }
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  return fd;
}

void epoll_add(int epfd, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(ADD)");
  }
}

}  // namespace

struct Server::Worker {
  UniqueFd udp;
  UniqueFd tcp_listen;
  UniqueFd epoll;
  UniqueFd wake;  // eventfd: stop() writes here to break epoll_wait

  struct Conn {
    UniqueFd fd;
    std::vector<std::uint8_t> in;   // unconsumed framed bytes
    std::vector<std::uint8_t> out;  // unflushed response bytes
    std::size_t out_off = 0;
    bool want_write = false;
  };
  std::unordered_map<int, Conn> conns;

  std::atomic<std::uint64_t> udp_datagrams{0};
  std::atomic<std::uint64_t> tcp_connections{0};
  std::atomic<std::uint64_t> tcp_messages{0};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> formerr{0};
  std::atomic<std::uint64_t> rrl_dropped{0};
  std::atomic<std::uint64_t> rrl_slipped{0};

  // Worker-private, touched only by this worker's epoll thread.
  authns::Rrl rrl;
  /// The worker's receive and transmit messages: every query decodes into
  /// rx and every response is built in tx, reusing their capacity. Each
  /// worker owns its own pair, so workers share no message.
  dns::Message rx;
  dns::Message tx;
};

Server::Server(const authns::Responder& responder, ServerConfig config)
    : responder_(responder), config_(std::move(config)) {
  if (config_.workers < 1) config_.workers = 1;
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  bound_port_ = config_.port;
  workers_.clear();
  workers_.reserve(static_cast<std::size_t>(config_.workers));

  for (int i = 0; i < config_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->rrl.set_config(config_.rrl);

    w->udp = make_socket(SOCK_DGRAM);
    sockaddr_in sa = make_addr(config_.bind_address, bound_port_);
    if (::bind(w->udp.get(), reinterpret_cast<sockaddr*>(&sa), sizeof sa) !=
        0) {
      throw_errno("bind(udp)");
    }
    if (bound_port_ == 0) {
      // First bind resolved the ephemeral port; every later socket (this
      // worker's TCP listener, all other workers) binds the same number.
      socklen_t len = sizeof sa;
      if (::getsockname(w->udp.get(), reinterpret_cast<sockaddr*>(&sa),
                        &len) != 0) {
        throw_errno("getsockname");
      }
      bound_port_ = ntohs(sa.sin_port);
    }

    w->tcp_listen = make_socket(SOCK_STREAM);
    sockaddr_in tsa = make_addr(config_.bind_address, bound_port_);
    if (::bind(w->tcp_listen.get(), reinterpret_cast<sockaddr*>(&tsa),
               sizeof tsa) != 0) {
      throw_errno("bind(tcp)");
    }
    if (::listen(w->tcp_listen.get(), SOMAXCONN) != 0) throw_errno("listen");

    w->epoll = UniqueFd{::epoll_create1(EPOLL_CLOEXEC)};
    if (!w->epoll) throw_errno("epoll_create1");
    w->wake = UniqueFd{::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)};
    if (!w->wake) throw_errno("eventfd");

    epoll_add(w->epoll.get(), w->udp.get(), EPOLLIN);
    epoll_add(w->epoll.get(), w->tcp_listen.get(), EPOLLIN);
    epoll_add(w->epoll.get(), w->wake.get(), EPOLLIN);

    workers_.push_back(std::move(w));
  }

  running_.store(true, std::memory_order_release);
  threads_.reserve(workers_.size());
  for (auto& w : workers_) {
    threads_.emplace_back([this, worker = w.get()] { run_worker(*worker); });
  }
}

void Server::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  running_.store(false, std::memory_order_release);
  for (auto& w : workers_) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(w->wake.get(), &one, sizeof one);
  }
  for (auto& t : threads_) t.join();
  threads_.clear();
  workers_.clear();
}

ServerStats Server::stats() const {
  ServerStats s;
  for (const auto& w : workers_) {
    s.udp_datagrams += w->udp_datagrams.load(std::memory_order_relaxed);
    s.tcp_connections += w->tcp_connections.load(std::memory_order_relaxed);
    s.tcp_messages += w->tcp_messages.load(std::memory_order_relaxed);
    s.responses += w->responses.load(std::memory_order_relaxed);
    s.dropped += w->dropped.load(std::memory_order_relaxed);
    s.formerr += w->formerr.load(std::memory_order_relaxed);
    s.rrl_dropped += w->rrl_dropped.load(std::memory_order_relaxed);
    s.rrl_slipped += w->rrl_slipped.load(std::memory_order_relaxed);
  }
  return s;
}

namespace {

/// Facts the UDP path needs to run RRL on an answer after the fact:
/// only Responder::answer responses are limitable (`answered`), and the
/// category wants the rcode + lookup disposition. The TC slip is built
/// from the query still in the worker's rx message.
struct AnswerMeta {
  bool answered = false;
  dns::Rcode rcode = dns::Rcode::NoError;
  authns::AnswerInfo info{};
};

/// The transport-independent step both sockets share: decode into `rx`,
/// answer into `tx` via the Responder, encode. Mirrors the simulated
/// AuthServer::on_datagram exactly (QR drop, NOTIFY ack, FORMERR for
/// undecodable-but-headered input) — divergence here would break
/// transport equivalence.
std::optional<net::WireBuffer> respond(const authns::Responder& responder,
                                       std::span<const std::uint8_t> wire,
                                       bool via_stream, bool& was_formerr,
                                       dns::Message& rx, dns::Message& tx,
                                       AnswerMeta* meta = nullptr) {
  was_formerr = false;
  try {
    dns::decode_message(wire, rx);
  } catch (const dns::WireError&) {
    auto reply = authns::Responder::formerr_reply(wire);
    was_formerr = reply.has_value();
    return reply;
  }
  if (rx.header.qr) return std::nullopt;  // never answer a response
  if (rx.header.opcode == dns::Opcode::Notify) {
    tx.reset_response(rx);
    tx.header.aa = true;
    return dns::encode_message(tx);
  }
  net::WireBuffer out;
  responder.answer(rx, tx, via_stream, &out,
                   meta != nullptr ? &meta->info : nullptr);
  if (out.empty()) out = dns::encode_message(tx);
  if (meta != nullptr) {
    meta->answered = !rx.questions.empty();
    meta->rcode = tx.header.rcode;
  }
  return out;
}

/// Monotonic micros for RRL windows — the kernel-socket analogue of the
/// simulation's SimTime.
net::SimTime steady_now() {
  return net::SimTime::from_micros(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void Server::run_worker(Worker& w) {
  std::vector<std::uint8_t> udp_buf(65535);
  epoll_event events[64];

  const auto flush_conn = [&](Worker::Conn& c) -> bool {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd.get(), c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!c.want_write) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = c.fd.get();
          ::epoll_ctl(w.epoll.get(), EPOLL_CTL_MOD, c.fd.get(), &ev);
          c.want_write = true;
        }
        return true;  // come back on EPOLLOUT
      }
      return false;  // peer gone or hard error: drop the connection
    }
    c.out.clear();
    c.out_off = 0;
    if (c.want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = c.fd.get();
      ::epoll_ctl(w.epoll.get(), EPOLL_CTL_MOD, c.fd.get(), &ev);
      c.want_write = false;
    }
    return true;
  };

  const auto service_conn = [&](Worker::Conn& c) -> bool {
    // Drain the socket, then cut complete 2-byte-length frames
    // (RFC 1035 §4.2.2) out of the accumulated bytes.
    for (;;) {
      std::uint8_t chunk[16384];
      const ssize_t n = ::recv(c.fd.get(), chunk, sizeof chunk, 0);
      if (n > 0) {
        c.in.insert(c.in.end(), chunk, chunk + n);
        continue;
      }
      if (n == 0) return false;  // orderly close
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    std::size_t consumed = 0;
    while (c.in.size() - consumed >= 2) {
      const std::size_t frame =
          (static_cast<std::size_t>(c.in[consumed]) << 8) | c.in[consumed + 1];
      if (frame > config_.max_tcp_frame) {
        w.dropped.fetch_add(1, std::memory_order_relaxed);
        return false;  // hostile length: cut the connection
      }
      if (c.in.size() - consumed < 2 + frame) break;  // partial frame
      w.tcp_messages.fetch_add(1, std::memory_order_relaxed);
      const std::span<const std::uint8_t> msg{c.in.data() + consumed + 2,
                                              frame};
      bool was_formerr = false;
      auto reply = respond(responder_, msg, /*via_stream=*/true, was_formerr,
                           w.rx, w.tx);
      if (reply) {
        if (was_formerr) w.formerr.fetch_add(1, std::memory_order_relaxed);
        w.responses.fetch_add(1, std::memory_order_relaxed);
        c.out.push_back(static_cast<std::uint8_t>(reply->size() >> 8));
        c.out.push_back(static_cast<std::uint8_t>(reply->size() & 0xff));
        c.out.insert(c.out.end(), reply->data(), reply->data() + reply->size());
      } else {
        w.dropped.fetch_add(1, std::memory_order_relaxed);
      }
      consumed += 2 + frame;
    }
    c.in.erase(c.in.begin(),
               c.in.begin() + static_cast<std::ptrdiff_t>(consumed));
    return flush_conn(c);
  };

  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(w.epoll.get(), events, 64, 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == w.wake.get()) continue;  // stop(): loop condition exits

      if (fd == w.udp.get()) {
        for (;;) {
          sockaddr_in peer{};
          socklen_t peer_len = sizeof peer;
          const ssize_t got =
              ::recvfrom(w.udp.get(), udp_buf.data(), udp_buf.size(), 0,
                         reinterpret_cast<sockaddr*>(&peer), &peer_len);
          if (got < 0) break;  // EAGAIN: drained
          w.udp_datagrams.fetch_add(1, std::memory_order_relaxed);
          bool was_formerr = false;
          AnswerMeta meta;
          AnswerMeta* meta_ptr = w.rrl.enabled() ? &meta : nullptr;
          auto reply = respond(
              responder_,
              std::span<const std::uint8_t>{udp_buf.data(),
                                            static_cast<std::size_t>(got)},
              /*via_stream=*/false, was_formerr, w.rx, w.tx, meta_ptr);
          if (!reply) {
            w.dropped.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          // RRL: same engine and same decisions as the simulated server —
          // UDP answer path only, client keyed by the raw source address.
          if (meta_ptr != nullptr && meta.answered) {
            const authns::RrlAction action = w.rrl.check(
                ntohl(peer.sin_addr.s_addr),
                authns::rrl_category(meta.rcode, meta.info.disposition),
                steady_now());
            if (action == authns::RrlAction::Drop) {
              w.rrl_dropped.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            if (action == authns::RrlAction::Slip) {
              w.rrl_slipped.fetch_add(1, std::memory_order_relaxed);
              *reply = dns::encode_message(authns::make_slip_reply(w.rx));
            }
          }
          if (was_formerr) w.formerr.fetch_add(1, std::memory_order_relaxed);
          w.responses.fetch_add(1, std::memory_order_relaxed);
          ::sendto(w.udp.get(), reply->data(), reply->size(), 0,
                   reinterpret_cast<sockaddr*>(&peer), peer_len);
        }
        continue;
      }

      if (fd == w.tcp_listen.get()) {
        for (;;) {
          UniqueFd conn{::accept4(w.tcp_listen.get(), nullptr, nullptr,
                                  SOCK_NONBLOCK | SOCK_CLOEXEC)};
          if (!conn) break;  // EAGAIN: accepted everything pending
          w.tcp_connections.fetch_add(1, std::memory_order_relaxed);
          const int cfd = conn.get();
          epoll_add(w.epoll.get(), cfd, EPOLLIN);
          Worker::Conn c;
          c.fd = std::move(conn);
          w.conns.emplace(cfd, std::move(c));
        }
        continue;
      }

      auto it = w.conns.find(fd);
      if (it == w.conns.end()) continue;
      bool alive = true;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) alive = false;
      if (alive && (events[i].events & EPOLLOUT) != 0) {
        alive = flush_conn(it->second);
      }
      if (alive && (events[i].events & EPOLLIN) != 0) {
        alive = service_conn(it->second);
      }
      if (!alive) {
        ::epoll_ctl(w.epoll.get(), EPOLL_CTL_DEL, fd, nullptr);
        w.conns.erase(it);
      }
    }
  }
  w.conns.clear();
}

}  // namespace recwild::netio
